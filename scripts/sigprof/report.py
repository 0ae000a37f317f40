#!/usr/bin/env python3
"""Print where a sampled run spent its CPU time: function, file, line, instruction.

Reads the file that sampler.c writes at exit (SAMPLER_OUT), resolves
every sampled address in the executable with `addr2line -f -i -C`, and
attributes each sample to its innermost frame: the function, and the
source line, whose code the interrupted instruction belongs to, inlined
or not. Samples outside the executable (libc, the vDSO) are grouped by
the file they fall in. A per-file table attributes each sample to the
innermost frame that is not the standard library's, so a `VecDeque`
operation inlined into the event queue counts as the event queue's. The
last table lists the hottest instructions by their address in the
executable, for `objdump -d --start-address`. Build the program with
line tables (`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only`), or every
line reads `??:0`.

    python3 scripts/sigprof/report.py run.samples
"""

import argparse
import collections
import os
import re
import struct
import subprocess
import sys

# Rows printed per table.
TOP = 25

# A Rust symbol's trailing disambiguating hash, `::h0123456789abcdef`.
RUST_HASH = re.compile(r"::h[0-9a-f]{16}$")


def read_samples(path):
    exe, maps, samples = None, [], []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            if line.startswith("exe "):
                exe = line[4:].strip()
            elif line.startswith("map "):
                start, end, offset, name = line[4:].rstrip("\n").split(" ", 3)
                maps.append((int(start, 16), int(end, 16), int(offset, 16), name))
            elif line.strip():
                addr, count = line.split()
                samples.append((int(addr, 16), int(count)))
    return exe, maps, samples


def load_segments(path):
    """(file offset, virtual address, file size) of each PT_LOAD segment
    of a 64-bit little-endian ELF file."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2 or head[5] != 1:
            sys.exit(f"report: {path} is not a 64-bit little-endian ELF file")
        phoff, = struct.unpack_from("<Q", head, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for k in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, k * phentsize)
        if p_type == 1:  # PT_LOAD
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


def link_address(addr, mapping, segments):
    """The address `addr` has in the ELF file's own address space."""
    start, _, offset, _ = mapping
    file_offset = addr - start + offset
    for seg_offset, seg_vaddr, size in segments:
        if seg_offset <= file_offset < seg_offset + size:
            return file_offset - seg_offset + seg_vaddr
    return None


def inline_chains(exe, addresses):
    """Maps each address to its (function, file:line) frames, innermost
    first, as `addr2line -a -f -i -C` prints them."""
    if not addresses:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input="".join(f"{a:#x}\n" for a in addresses),
        capture_output=True, text=True, check=True).stdout.splitlines()
    chains, k = {}, 0
    while k < len(out):
        chain = chains.setdefault(int(out[k], 16), [])
        k += 1
        while k < len(out) and not out[k].startswith("0x"):
            where = re.sub(r" \(discriminator \d+\)$", "", out[k + 1])
            chain.append((RUST_HASH.sub("", out[k]), where))
            k += 2
    return chains


def own_file(chain):
    """The source file of the innermost frame outside the Rust standard
    library (whose sources live under /rustc/)."""
    for _, where in chain:
        path = where.rsplit(":", 1)[0]
        if path != "??" and not path.startswith("/rustc/"):
            return path
    return "[standard library only]"


def print_shares(title, counts, total):
    print(f"\n{title}")
    for name, n in counts.most_common(TOP):
        print(f"{100.0 * n / total:6.2f}%  {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples", help="the file sampler.c wrote (SAMPLER_OUT)")
    args = ap.parse_args()

    exe, maps, samples = read_samples(args.samples)
    if exe is None or not os.path.exists(exe):
        sys.exit(f"report: the executable {exe!r} named in {args.samples} is gone")
    segments = load_segments(exe)
    total = sum(n for _, n in samples)
    if total == 0:
        sys.exit("report: no samples")

    in_exe, elsewhere = collections.Counter(), collections.Counter()
    for addr, n in samples:
        mapping = next((m for m in maps if m[0] <= addr < m[1]), None)
        if mapping is None:
            elsewhere["[no mapping]"] += n
        elif mapping[3] != exe:
            elsewhere[os.path.basename(mapping[3])] += n
        else:
            linked = link_address(addr, mapping, segments)
            if linked is None:
                elsewhere["[outside any segment]"] += n
            else:
                in_exe[linked] += n

    chains = inline_chains(exe, sorted(in_exe))
    functions, files, lines, instructions = (collections.Counter() for _ in range(4))
    for addr, n in in_exe.items():
        chain = chains.get(addr) or [("??", "??:0")]
        function, where = chain[0]
        functions[function] += n
        files[own_file(chain)] += n
        lines[f"{where}  ({function})"] += n
        instructions[f"{addr:#x}  {where}  ({function})"] += n
    functions.update(elsewhere)
    files.update(elsewhere)

    print(f"{total} samples of {exe}; {sum(elsewhere.values())} outside it")
    print_shares("By function (innermost frame):", functions, total)
    print_shares("By source file (innermost frame outside std):", files, total)
    print_shares("By line (innermost frame):", lines, total)
    print_shares("By instruction:", instructions, total)


if __name__ == "__main__":
    main()
