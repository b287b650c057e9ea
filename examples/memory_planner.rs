//! Memory/communication planner: sweep `grad_worker_frac` for a model on a
//! cluster and report the simulated iteration time and K-FAC memory
//! overhead — the profiling loop the paper says makes tuning the fraction
//! "simple" (Section 5.5).
//!
//! ```sh
//! cargo run --release --example memory_planner -- resnet50 64
//! cargo run --release --example memory_planner -- bert 8
//! ```

use kaisa::sim::{ClusterSpec, ModelInventory, SimParams, Simulator};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let model_name = args.get(1).map(String::as_str).unwrap_or("resnet50");
    let world: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(64);

    let model = match model_name {
        "resnet18" => ModelInventory::resnet18(),
        "resnet50" => ModelInventory::resnet50(),
        "resnet101" => ModelInventory::resnet101(),
        "resnet152" => ModelInventory::resnet152(),
        "maskrcnn" => ModelInventory::mask_rcnn_roi_heads(),
        "bert" => ModelInventory::bert_large(512),
        "unet" => ModelInventory::unet(),
        "vgg16" => ModelInventory::vgg16(),
        other => {
            eprintln!(
                "unknown model '{other}' (try resnet18/50/101/152, vgg16, maskrcnn, bert, unet)"
            );
            std::process::exit(1);
        }
    };
    let cluster = ClusterSpec::frontera(world);
    println!(
        "model {} ({} K-FAC layers, {:.1}M params) on {} x {}",
        model.name,
        model.layers.len(),
        model.total_params() as f64 / 1e6,
        world,
        cluster.gpu.name
    );
    println!(
        "\n{:>12} {:>14} {:>16} {:>16} {:>12}",
        "frac", "iter time", "K-FAC overhead", "absolute mem", "fits 16GB?"
    );

    let mut best: Option<(f64, f64)> = None;
    let mut frac = 1.0 / world as f64;
    while frac <= 1.0 + 1e-9 {
        let params = SimParams::baseline(model.clone(), cluster, 32).with_kfac(frac, 50, 500);
        let sim = Simulator::new(params);
        let iter = sim.iteration_breakdown().total();
        let mem = sim.memory_breakdown();
        let abs_gb = mem.absolute() as f64 / (1 << 30) as f64;
        let fits = mem.absolute() as u64 <= cluster.gpu.mem_bytes;
        println!(
            "{:>12.4} {:>11.1} ms {:>13.0} MB {:>13.2} GB {:>12}",
            frac,
            iter * 1e3,
            mem.kfac_overhead() as f64 / (1 << 20) as f64,
            abs_gb,
            if fits { "yes" } else { "NO" },
        );
        if fits && best.is_none_or(|(_, t)| iter < t) {
            best = Some((frac, iter));
        }
        frac *= 2.0;
    }

    match best {
        Some((frac, iter)) => println!(
            "\nrecommended grad_worker_frac = {frac:.4} ({:.1} ms/iteration within budget)",
            iter * 1e3
        ),
        None => println!("\nno configuration fits the device memory at this batch size"),
    }
}
