//! Remedy comparison: deploy each of the paper's §6.2 remedies and compare
//! privacy (Case-2 leaks) against cost (latency, traffic, queries) — the
//! Fig. 11 experiment — then attack the signaling remedies like §6.2.3.
//!
//! ```text
//! cargo run --release -p lookaside --example remedy_comparison
//! ```

#![expect(clippy::disallowed_macros, reason = "an example prints what it demonstrates")]

use lookaside::attacks::{txt_poison_attack, zbit_flip_attack};
use lookaside::experiments::fig11;
use lookaside::report::render_table;

fn main() {
    let n = 500;
    println!("deploying each remedy on a top-{n} workload ...\n");
    let rows: Vec<Vec<String>> = fig11(n, 17)
        .iter()
        .map(|r| {
            vec![
                r.remedy.clone(),
                format!("{:.2}", r.seconds),
                format!("{:.3}", r.megabytes),
                r.queries.to_string(),
                r.leaks.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["remedy", "sim time (s)", "traffic (MB)", "queries", "case-2 leaks"], &rows)
    );
    println!(
        "\nTXT signaling pays a probe per zone; the Z bit rides on responses that\n\
         were being sent anyway; hashed DLV leaks only digests (the leak count\n\
         above is of *hashed* names, which reveal nothing without a dictionary)."
    );

    println!("\nnow attacking the signaling remedies in flight (§6.2.3) ...\n");
    let z = zbit_flip_attack(200, 31);
    let t = txt_poison_attack(200, 33);
    let rows = vec![
        vec![
            "Z-bit flip".to_string(),
            z.leaks_with_remedy.to_string(),
            z.leaks_under_attack.to_string(),
        ],
        vec![
            "TXT poison".to_string(),
            t.leaks_with_remedy.to_string(),
            t.leaks_under_attack.to_string(),
        ],
    ];
    print!("{}", render_table(&["attack", "leaks (clean)", "leaks (attacked)"], &rows));
    println!(
        "\nunsigned signals can be rewritten by an on-path attacker, restoring\n\
         the leak — which is why the paper suggests signing the signal."
    );
}
