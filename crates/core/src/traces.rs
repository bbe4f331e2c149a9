//! End-to-end checks of client-side trace capture ([`cbi_vm::Vm::with_trace`],
//! the §2.5 ordering extension) on the instrumented ccrypt workload.

#[cfg(test)]
mod tests {
    use cbi_instrument::{instrument, Scheme};
    use cbi_sampler::{LazyBank, SamplingDensity};
    use cbi_vm::Vm;
    use cbi_workloads::{ccrypt_program, ccrypt_trials, CcryptTrialConfig};

    #[test]
    fn trace_ring_buffer_is_bounded() {
        let program = ccrypt_program();
        let trials = ccrypt_trials(40, 3, &CcryptTrialConfig::default());
        let inst = instrument(&program, Scheme::Returns).unwrap();
        let (executable, _) = cbi_instrument::apply_sampling(
            &inst.program,
            &cbi_instrument::TransformOptions::default(),
        )
        .unwrap();
        for input in trials {
            let bank = LazyBank::new(SamplingDensity::always(), 64, 1);
            let r = Vm::new(&executable)
                .with_sites(&inst.sites)
                .with_sampling(Box::new(bank))
                .with_input(input)
                .with_trace(5)
                .run()
                .unwrap();
            assert!(r.trace.len() <= 5);
        }
    }

    #[test]
    fn traces_disabled_by_default() {
        let program = ccrypt_program();
        let trials = ccrypt_trials(5, 3, &CcryptTrialConfig::default());
        let inst = instrument(&program, Scheme::Returns).unwrap();
        for input in trials {
            let r = Vm::new(&inst.program)
                .with_sites(&inst.sites)
                .with_input(input)
                .run()
                .unwrap();
            assert!(r.trace.is_empty());
        }
    }
}
