//! End-to-end integration tests: every simulated machine computes the
//! right answer, and the paper's headline orderings hold across crates.

use drt_accel::cpu::CpuSpec;
use drt_accel::pipeline::PipelineSpec;
use drt_accel::report::RunReport;
use drt_accel::session::Session;
use drt_accel::spec::AccelSpec;
use drt_accel::workload::Workload;
use drt_kernels::spmspm::gustavson;
use drt_sim::memory::{BufferSpec, HierarchySpec};
use drt_tensor::CsMatrix;
use drt_workloads::suite::Catalog;

fn hier(llb_kib: u64) -> HierarchySpec {
    HierarchySpec {
        llb: BufferSpec { capacity_bytes: llb_kib * 1024, ports: 2 },
        num_pes: 32,
        ..HierarchySpec::default()
    }
}

/// Run the registered variant `name` on `A · B` under hierarchy `h`.
fn run(name: &str, a: &CsMatrix, b: &CsMatrix, h: &HierarchySpec) -> RunReport {
    Session::from_registry(name)
        .expect("registered")
        .hierarchy(h)
        .run_spmspm(a, b)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_machine_agrees_on_the_product() {
    // One banded and one unstructured catalog surrogate, small scale.
    for name in ["bcsstk17", "cit-HepPh"] {
        let entry = Catalog::paper_table3().get(name).expect("in catalog").clone();
        let a = entry.generate(64, 5);
        let h = hier(96);
        let reference = gustavson(&a, &a).z;
        let runs = [
            "cpu-mkl",
            "extensor",
            "extensor-op",
            "extensor-op-drt",
            "outerspace",
            "outerspace-drt",
            "matraptor",
            "matraptor-drt",
        ]
        .map(|name| run(name, &a, &a, &h));
        for r in &runs {
            assert!(
                r.output.as_ref().expect("functional").approx_eq(&reference, 1e-6),
                "{name}: {} diverges from the reference product",
                r.name
            );
            assert_eq!(r.maccs, gustavson(&a, &a).maccs, "{name}: {} MACC count", r.name);
        }
    }
}

#[test]
fn traffic_never_below_lower_bound() {
    let entry = Catalog::paper_table3().get("sx-mathoverflow").expect("in catalog").clone();
    let a = entry.generate(64, 3);
    let h = hier(64);
    let drt = run("extensor-op-drt", &a, &a, &h);
    let z = drt.output.as_ref().expect("functional");
    let lb = drt_sim::traffic::spmspm_lower_bound(&a, &a, z, &Default::default());
    assert!(drt.traffic.reads_of("A") >= lb.reads_of("A"));
    assert!(drt.traffic.reads_of("B") >= lb.reads_of("B"));
    // The engine's COO partial-write model can undercut the compressed
    // footprint only by the segment array; allow that slack.
    assert!(drt.traffic.writes_of("Z") * 2 >= lb.writes_of("Z"));
}

#[test]
fn drt_reduces_traffic_versus_static_tiling_on_irregular_input() {
    let entry = Catalog::paper_table3().get("soc-Epinions1").expect("in catalog").clone();
    let a = entry.generate(48, 7);
    let h = hier(48);
    let suc = run("extensor-op", &a, &a, &h);
    let drt = run("extensor-op-drt", &a, &a, &h);
    assert!(
        drt.traffic.total() < suc.traffic.total(),
        "DRT {} >= best-S-U-C {}",
        drt.traffic.total(),
        suc.traffic.total()
    );
    assert!(drt.seconds <= suc.seconds * 1.02, "DRT should not be slower");
}

#[test]
fn figure1_ordering_holds_in_aggregate() {
    // Aggregated over a small suite: ExTensor-OP-DRT sits closest to the
    // lower bound; untiled OuterSPACE is the worst.
    let h = hier(64);
    let mut totals = [0u64; 3]; // outerspace, extensor, drt
    let mut bound = 0u64;
    for entry in Catalog::sweep_subset() {
        let a = entry.generate(64, 9);
        let os = run("outerspace", &a, &a, &h);
        let ext = run("extensor", &a, &a, &h);
        let drt = run("extensor-op-drt", &a, &a, &h);
        let z = drt.output.as_ref().expect("functional");
        totals[0] += os.traffic.total();
        totals[1] += ext.traffic.total();
        totals[2] += drt.traffic.total();
        bound += drt_sim::traffic::spmspm_lower_bound(&a, &a, z, &Default::default()).total();
    }
    assert!(totals[2] < totals[1], "DRT {} < ExTensor {}", totals[2], totals[1]);
    assert!(totals[2] < totals[0], "DRT {} < OuterSPACE {}", totals[2], totals[0]);
    assert!(totals[2] >= bound, "no design beats the lower bound");
    assert!(
        (totals[2] as f64) < 4.0 * bound as f64,
        "DRT should land within a small factor of the bound (got {:.2}x)",
        totals[2] as f64 / bound as f64
    );
}

#[test]
fn energy_tracks_traffic() {
    let entry = Catalog::paper_table3().get("scircuit").expect("in catalog").clone();
    let a = entry.generate(64, 11);
    let h = hier(48);
    let energy = drt_sim::energy::EnergyModel::default();
    let suc = run("extensor-op", &a, &a, &h);
    let drt = run("extensor-op-drt", &a, &a, &h);
    if drt.traffic.total() < suc.traffic.total() {
        assert!(
            energy.energy_joules(&drt.actions) < energy.energy_joules(&suc.actions),
            "lower traffic must mean lower energy"
        );
    }
}

#[test]
fn msbfs_workload_and_kernel_agree_through_the_accelerator() {
    let entry = Catalog::paper_table3().get("p2p-Gnutella31").expect("in catalog").clone();
    let s = entry.generate(96, 13);
    let w = drt_workloads::msbfs::build(&s, 32, 6, 13);
    let h = hier(64);
    for f in &w.frontiers {
        if f.nnz() == 0 {
            continue;
        }
        let r = run("extensor-op-drt", f, &w.adjacency, &h);
        // The accelerator computes the numeric product (path counts); the
        // BFS kernel booleanizes — compare sparsity patterns.
        let got = r.output.as_ref().expect("functional");
        let reference = drt_kernels::bfs::frontier_step(f, &w.adjacency);
        assert_eq!(got.nnz(), reference.nnz(), "frontier pattern size");
        for (row, col, _) in reference.iter() {
            assert_ne!(got.get(row, col), 0.0, "missing frontier vertex ({row},{col})");
        }
    }
}

#[test]
fn gram_pipeline_is_consistent_end_to_end() {
    let x = drt_workloads::tensor3::skewed_tensor(32, 32, 32, 3_000, 17);
    let gram = Workload::pipeline_on_tensor(x, PipelineSpec::gram().with_micro3([4, 4, 4]));
    let run = |name: &str| {
        Session::from_registry(name)
            .expect("registered")
            .hierarchy(&hier(24))
            .cpu(CpuSpec { llc_bytes: 4096, ..CpuSpec::default() })
            .run_workload(&gram)
            .expect("gram")
            .into_report()
    };
    let taco = run("cpu-mkl");
    let drt = run("extensor-op-drt");
    assert_eq!(drt.maccs, taco.maccs, "same effectual work on both machines");
    assert!(drt
        .output
        .as_ref()
        .expect("functional")
        .approx_eq(taco.output.as_ref().expect("functional"), 1e-9));
    // The accelerator beats the cache-starved CPU baseline on intensity.
    assert!(drt.arithmetic_intensity() > taco.arithmetic_intensity());
}

#[test]
fn software_study_matches_hardware_direction() {
    let a = drt_workloads::patterns::uniform_random(384, 384, 3_500, 19);
    let cpu = CpuSpec { llc_bytes: 12 * 1024, ..CpuSpec::default() };
    let traffic = |spec: AccelSpec| {
        Session::new(spec).cpu(cpu).run_spmspm(&a, &a).expect("sw").traffic.total() as f64
    };
    let untiled = traffic(AccelSpec::cpu_mkl());
    let suc = untiled / traffic(AccelSpec::sw_suc(16, (8, 8)));
    let dnc = untiled / traffic(AccelSpec::sw_dnc((8, 8)));
    assert!(
        dnc > suc,
        "software DRT ({dnc:.2}x) must beat software S-U-C ({suc:.2}x) on random patterns"
    );
}
