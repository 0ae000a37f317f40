//! The Id compiler as a tool: compile a program (a file path argument,
//! or a built-in demo), print its statistics and Graphviz rendering, and
//! run it.
//!
//! ```text
//! cargo run --example id_compiler                 # built-in demo
//! cargo run --example id_compiler -- prog.id 7    # your program + int inputs
//! cargo run --example id_compiler -- --dot        # emit dot to stdout
//! cargo run --example id_compiler -- --threads 4  # also check the parallel backend
//! ```

use ttda::core::{Emulator, Value};

const DEMO: &str = r#"
-- Per-element pipeline: fill a[i] = fib(i) with a recursive procedure,
-- then sum the array. The consumer loop overlaps the producer through
-- I-structure deferral.
def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
def main(n) =
  { a = array(n);
    len = (initial j = 0 for i from 0 to n - 1 do
             a[i] <- fib(i);
             new j = j + 1
           return j);
    (initial s = 0 for i from 0 to len - 1 do
       new s = s + a[i]
     return s) };
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let want_dot = args.iter().any(|a| a == "--dot");
    let mut threads = 1usize;
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        threads = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .ok_or("--threads needs a number (0 = one per core)")?;
        args.drain(pos..pos + 2);
    }
    let rest: Vec<&String> = args.iter().filter(|a| *a != "--dot").collect();

    let source = match rest.first() {
        Some(path) => std::fs::read_to_string(path)?,
        None => DEMO.to_string(),
    };
    let inputs: Vec<Value> = if rest.len() > 1 {
        rest[1..]
            .iter()
            .map(|s| s.parse::<i64>().map(Value::Int))
            .collect::<Result<_, _>>()?
    } else {
        vec![Value::Int(12)]
    };

    let program = ttda::idc::compile(&source)?;
    eprintln!(
        "compiled: {} code blocks, {} instructions",
        program.blocks.len(),
        program.instr_count()
    );
    for (i, b) in program.blocks.iter().enumerate() {
        eprintln!(
            "  block c{i} `{}`: {} instrs, {} params",
            b.name,
            b.instrs.len(),
            b.params.len()
        );
    }

    if want_dot {
        println!("{}", program.to_dot());
        return Ok(());
    }

    // The parallelism profile comes from the sequential interpreter; the
    // parallel backend only has to agree on the outputs.
    let r = Emulator::new(&program).run(&inputs)?;
    if threads != 1 {
        let par = Emulator::new(&program).with_threads(threads).run(&inputs)?;
        assert_eq!(
            par.outputs, r.outputs,
            "parallel backend changed the outputs"
        );
        eprintln!("parallel backend ({threads} workers): same outputs");
    }
    eprintln!("\nran in {} waves, {} firings", r.waves, r.instructions);
    eprintln!(
        "parallelism: mean {:.1}, peak {}; contexts allocated: {}",
        r.mean_parallelism(),
        r.peak_parallelism(),
        r.contexts
    );
    let mut slots: Vec<_> = r.outputs.iter().collect();
    slots.sort_by_key(|(k, _)| **k);
    for (slot, v) in slots {
        println!("output[{slot}] = {v}");
    }
    Ok(())
}
