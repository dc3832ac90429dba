//! Remark 2 run forward: functional dependencies can turn an intractable
//! query tractable. `Π(x,y) ← A(x,z), B(z,y)` is the canonical
//! mat-mul-hard CQ — unless `A`'s first column is a key, in which case the
//! FD-extension is free-connex and the whole DelayClin machinery applies:
//! the rewrite is an ordinary union over a widened instance, so it runs on
//! the ordinary engine — one-shot, in a session, or frozen and served.
//!
//! ```sh
//! cargo run --release --example functional_dependencies
//! ```

use ucq::prelude::*;

fn main() {
    let union = parse_ucq("Pi(x, y) <- A(x, z), B(z, y)").expect("well-formed");
    println!("Query:\n{union}\n");

    // Without FDs: intractable (Theorem 3(2), mat-mul).
    let plain = classify(&union);
    println!("Without FDs: {:?}\n", verdict_name(&plain.verdict));

    // With the key FD A : x → z (first column determines the second).
    let fds = FdSet::new(vec![Fd::new("A", vec![0], 1)]);
    let rewrite = fd_rewrite(&union, &fds).expect("extends");
    let engine = rewrite.engine();
    println!(
        "With A: x → z, the FD-extension is:\n{}\n(answers are its first {} head positions)\n",
        rewrite.ucq, rewrite.answer_arity
    );
    println!(
        "Remark 2 verdict: {:?} (strategy {:?})\n",
        verdict_name(&engine.classification().verdict),
        engine.strategy()
    );

    // Evaluate on a key-respecting instance.
    let instance: Instance = ucq::storage::parse_instance(
        "A(1, 10). A(2, 20). A(3, 10).\n\
         B(10, 5). B(10, 6). B(20, 7).",
    )
    .expect("valid instance text");
    let widened = rewrite.instance(&instance).expect("FDs hold");
    let mut answers = engine.enumerate(&widened).expect("evaluates");
    println!("Answers over the key-respecting instance:");
    while let Some(t) = answers.next() {
        println!("  {t}");
    }

    // The same session ladder as any other union: freeze once, then serve
    // the snapshot from as many threads as there are readers.
    let frozen = engine.session(&widened).freeze().expect("freezes");
    let counts: Vec<usize> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| s.spawn(|| frozen.enumerate().expect("serves").collect_all().len()))
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    println!("\nFrozen and read by 4 threads: {counts:?} answers each");

    // A violating instance is rejected up front.
    let bad: Instance = ucq::storage::parse_instance("A(1, 10). A(1, 11). B(10, 5).").unwrap();
    match rewrite.instance(&bad) {
        Err(e) => println!("\nViolating instance rejected: {e}"),
        Ok(_) => unreachable!("the FD check must fire"),
    }
}

fn verdict_name(v: &Verdict) -> &'static str {
    match v {
        Verdict::FreeConnex { .. } => "FreeConnex (DelayClin)",
        Verdict::Intractable { .. } => "Intractable",
        Verdict::Unknown { .. } => "Unknown",
    }
}
