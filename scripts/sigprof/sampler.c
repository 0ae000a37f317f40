/*
 * A sampling profiler to preload into any process:
 *
 *     cc -O2 -shared -fPIC -o sampler.so scripts/sigprof/sampler.c
 *     SAMPLER_OUT=run.samples LD_PRELOAD=$PWD/sampler.so ./program ...
 *     python3 scripts/sigprof/report.py run.samples
 *
 * When SAMPLER_OUT is set, an ITIMER_PROF timer interrupts the process
 * once per millisecond of CPU time (in practice at the kernel tick, about
 * 250 Hz), and the SIGPROF handler records the interrupted instruction
 * pointer. At exit the samples are written to SAMPLER_OUT, one line per
 * distinct address with its count, after the process's executable
 * mappings, so that report.py can resolve each address to a function and
 * source line. Without SAMPLER_OUT the library does nothing.
 *
 * `make profile` builds it, builds the benchmark with line tables and
 * reports one workload. x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAPACITY (1u << 20)
#define INTERVAL_US 1000

static uint64_t samples[CAPACITY];
static uint64_t taken; /* may exceed CAPACITY: the excess is dropped */
static int active;

static void on_sigprof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    const mcontext_t *mc = &((const ucontext_t *)context)->uc_mcontext;
#if defined(__x86_64__)
    uint64_t ip = (uint64_t)mc->gregs[REG_RIP];
#else
#error "sampler.c reads the interrupted instruction pointer on x86-64 only"
#endif
    /* Any thread may take the signal: claim a slot atomically. */
    uint64_t k = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (k < CAPACITY)
        samples[k] = ip;
}

__attribute__((constructor)) static void sampler_start(void)
{
    if (!getenv("SAMPLER_OUT"))
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    struct itimerval every = {{0, INTERVAL_US}, {0, INTERVAL_US}};
    if (sigaction(SIGPROF, &sa, NULL) != 0 || setitimer(ITIMER_PROF, &every, NULL) != 0) {
        perror("sampler: cannot start the profiling timer");
        return;
    }
    active = 1;
}

static int by_address(const void *a, const void *b)
{
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

/* Copies every executable mapping of /proc/self/maps, as
 * `map <start> <end> <file offset> <path>`, to `out`. */
static void write_mappings(FILE *out)
{
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps)) {
        unsigned long start, end, offset;
        char perms[8];
        int path_at = 0;
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end, perms, &offset, &path_at) < 4)
            continue;
        if (perms[2] != 'x' || path_at == 0)
            continue;
        line[strcspn(line, "\n")] = '\0';
        fprintf(out, "map %lx %lx %lx %s\n", start, end, offset, line + path_at);
    }
    fclose(maps);
}

__attribute__((destructor)) static void sampler_stop(void)
{
    if (!active)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    active = 0;

    const char *path = getenv("SAMPLER_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) {
        perror("sampler: cannot write SAMPLER_OUT");
        return;
    }
    uint64_t n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    uint64_t kept = n < CAPACITY ? n : CAPACITY;
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = '\0';
    fprintf(out, "# sigprof samples: %llu taken, %llu kept, every %d us of CPU time\n",
            (unsigned long long)n, (unsigned long long)kept, INTERVAL_US);
    fprintf(out, "exe %s\n", exe);
    write_mappings(out);
    qsort(samples, kept, sizeof samples[0], by_address);
    for (uint64_t i = 0; i < kept;) {
        uint64_t j = i;
        while (j < kept && samples[j] == samples[i])
            j++;
        fprintf(out, "%llx %llu\n", (unsigned long long)samples[i], (unsigned long long)(j - i));
        i = j;
    }
    fclose(out);
}
