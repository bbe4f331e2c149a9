//! Table 2 companion bench: wall-clock cost of executing the three builds
//! (baseline, unconditional, sampled) of a representative benchmark.
//! The printed Table 2 uses deterministic op counts; this bench confirms
//! the same ordering holds for real time on the bytecode engine.

use cbi::instrument::{apply_sampling, instrument, strip_sites, Scheme, TransformOptions};
use cbi::minic::lower;
use cbi::sampler::{LazyBank, SamplingDensity};
use cbi::vm::bytecode::compile;
use cbi::vm::Vm;
use cbi::workloads::benchmark;
use cbi_bench::harness::bench;
use std::hint::black_box;

fn main() {
    let b = benchmark("mst").expect("benchmark exists");
    let inst = instrument(&b.program, Scheme::Checks).expect("instrument");
    let baseline_exe = compile(&lower(&strip_sites(&inst.program)));
    let inst_exe = compile(&lower(&inst.program));
    let (sampled, _) =
        apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
    let sampled_exe = compile(&lower(&sampled));

    bench("table2_execution_mst/baseline", || {
        black_box(Vm::from_bytecode(&baseline_exe).run().expect("run"))
    });
    bench("table2_execution_mst/unconditional", || {
        black_box(
            Vm::from_bytecode(&inst_exe)
                .with_sites(&inst.sites)
                .run()
                .expect("run"),
        )
    });
    let mut bank = LazyBank::new(SamplingDensity::one_in(1000), 1024, 0);
    let mut seed = 0;
    bench("table2_execution_mst/sampled_1in1000", || {
        seed += 1;
        bank.reseed(SamplingDensity::one_in(1000), seed);
        let mut vm = Vm::from_bytecode(&sampled_exe);
        vm.with_sites(&inst.sites).with_sampling_ref(&mut bank);
        black_box(vm.run().expect("run"))
    });
}
