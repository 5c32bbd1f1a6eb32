//! Figure 5a: router counts vs the Moore bound for diameter-2
//! topologies — Slim Fly MMS, 2-level flattened butterfly, 2-stage fat
//! tree (Long Hop's diameter-2 family is approximated).
//!
//! Usage: `fig5a_moore2 [--qmax 64]`
//! Output: CSV `kprime,moore2,sf_nr,sf_frac,fbf2_nr,ft2_nr`.
//! Checkpoint from the paper: for k' = 96 the MMS graph has 8,192
//! routers, 12% below the bound of 9,217.

use sf_bench::{f, print_csv_row, run_cli};
use sf_topo::fattree::fattree2_routers;
use sf_topo::moore::moore_bound;
use slimfly::prelude::*;

fn main() {
    run_cli(|args| {
        let qmax: u32 = args.value("qmax", 64)?;

        print_csv_row(&[
            "kprime".into(),
            "moore2".into(),
            "sf_nr".into(),
            "sf_frac".into(),
            "fbf2_nr".into(),
            "ft2_nr".into(),
        ]);
        for q in SlimFly::admissible_q_up_to(qmax) {
            let sf = SlimFly::new(q)?;
            let kp = sf.network_radix() as u64;
            let mb = moore_bound(kp, 2);
            let nr = sf.num_routers() as u64;
            // FBF-2 with the same k': extent c = k'/2 + 1 → Nr = c².
            let c = kp / 2 + 1;
            let fbf2 = c * c;
            print_csv_row(&[
                kp.to_string(),
                mb.to_string(),
                nr.to_string(),
                f(nr as f64 / mb as f64),
                fbf2.to_string(),
                fattree2_routers(kp).to_string(),
            ]);
        }
        // The paper's headline data point: q = 64 (δ = 0) gives k' = 96,
        // Nr = 8192 vs the bound 9217 — "only 12% worse" (§II-B3).
        let sf64 = SlimFly::new(64)?;
        eprintln!(
            "# check: k'={} Nr={} MB={} frac={:.3} (paper: 8192/9217 = 0.889)",
            sf64.network_radix(),
            sf64.num_routers(),
            moore_bound(sf64.network_radix() as u64, 2),
            sf64.num_routers() as f64 / moore_bound(sf64.network_radix() as u64, 2) as f64
        );
        Ok(())
    })
}
