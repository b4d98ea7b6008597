//! DPU instruction set and micro-architectural executor.
//!
//! The real Xilinx DPU executes programs produced by the Vitis AI
//! compiler: LOAD/SAVE instructions move tiles between DDR and on-chip
//! buffers while CONV/POOL/ELEW instructions drive the compute engines,
//! with double buffering overlapping the two. The encrypted IP hides this
//! machinery — but its *timing* is exactly what leaks through the current
//! sensors, so the reproduction models it explicitly:
//!
//! * [`Program::compile`] lowers a [`dnn_models::ModelArch`] to the
//!   instruction stream (per layer: weight/activation LOADs, the engine
//!   op, the result SAVE, with an END terminator).
//! * [`Executor::run`] schedules the stream onto a two-engine machine
//!   (memory mover + compute array) with double buffering: a layer's
//!   LOADs overlap the previous layer's compute, reproducing the roofline
//!   behaviour `t = max(t_mem, t_compute)` that
//!   [`crate::DpuSchedule::lower`] uses in closed form.

use dnn_models::{LayerKind, ModelArch};
use zynq_soc::SimTime;

use crate::DpuConfig;

/// DPU opcodes (simplified from the B4096 instruction set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Move a tile from DDR into on-chip buffers.
    Load,
    /// Move a result tile from on-chip buffers to DDR.
    Save,
    /// Standard convolution on the MAC array.
    Conv,
    /// Depthwise convolution.
    DwConv,
    /// Pooling.
    Pool,
    /// Elementwise add / concat plumbing.
    Elew,
    /// Fully connected (matrix-vector) on the MAC array.
    Fc,
    /// Program terminator.
    End,
}

impl Opcode {
    /// Whether this opcode occupies the memory-mover engine.
    pub fn is_memory(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Save)
    }

    /// Whether this opcode occupies the compute engine.
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            Opcode::Conv | Opcode::DwConv | Opcode::Pool | Opcode::Elew | Opcode::Fc
        )
    }
}

/// One DPU instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Operation.
    pub opcode: Opcode,
    /// MAC work for compute ops (0 for memory ops).
    pub macs: u64,
    /// DDR bytes for memory ops (0 for compute ops).
    pub bytes: u64,
    /// Source layer name (empty for END).
    pub layer: String,
}

/// Error produced by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProgramError {
    /// The program is empty.
    Empty,
    /// The program does not end with END.
    MissingEnd,
    /// An END appears before the final position.
    EarlyEnd(usize),
    /// A compute instruction carries no work.
    EmptyCompute(usize),
    /// A memory instruction moves no bytes.
    EmptyTransfer(usize),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program is empty"),
            ProgramError::MissingEnd => write!(f, "program does not end with END"),
            ProgramError::EarlyEnd(i) => write!(f, "END at position {i} before the end"),
            ProgramError::EmptyCompute(i) => write!(f, "compute instruction {i} has no work"),
            ProgramError::EmptyTransfer(i) => write!(f, "memory instruction {i} moves no bytes"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A compiled DPU program.
///
/// # Examples
///
/// ```
/// use dnn_models::zoo;
/// use dpu::isa::Program;
///
/// let models = zoo();
/// let resnet = models.iter().find(|m| m.name == "resnet-50").unwrap();
/// let program = Program::compile(resnet);
/// program.validate().unwrap();
/// assert!(program.len() > resnet.layers.len()); // loads/saves added
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instructions: Vec<Instruction>,
    model_name: String,
}

impl Program {
    /// Lowers a model to the instruction stream. Each layer becomes
    /// `LOAD(weights+ifm) ; <engine op> ; SAVE(ofm)`, splitting the
    /// layer's recorded DRAM traffic 3:1 between the load (weights and
    /// input dominate) and the save.
    pub fn compile(model: &ModelArch) -> Self {
        let mut instructions = Vec::with_capacity(model.layers.len() * 3 + 1);
        for layer in &model.layers {
            let load_bytes = layer.dram_bytes * 3 / 4;
            let save_bytes = layer.dram_bytes - load_bytes;
            if load_bytes > 0 {
                instructions.push(Instruction {
                    opcode: Opcode::Load,
                    macs: 0,
                    bytes: load_bytes,
                    layer: layer.name.clone(),
                });
            }
            let opcode = match layer.kind {
                LayerKind::Conv => Opcode::Conv,
                LayerKind::DepthwiseConv => Opcode::DwConv,
                LayerKind::Pool => Opcode::Pool,
                LayerKind::Add | LayerKind::Concat => Opcode::Elew,
                LayerKind::FullyConnected => Opcode::Fc,
            };
            instructions.push(Instruction {
                opcode,
                macs: layer.macs.max(1),
                bytes: 0,
                layer: layer.name.clone(),
            });
            if save_bytes > 0 {
                instructions.push(Instruction {
                    opcode: Opcode::Save,
                    macs: 0,
                    bytes: save_bytes,
                    layer: layer.name.clone(),
                });
            }
        }
        instructions.push(Instruction {
            opcode: Opcode::End,
            macs: 0,
            bytes: 0,
            layer: String::new(),
        });
        Program {
            instructions,
            model_name: model.name.clone(),
        }
    }

    /// The instruction stream.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions including END.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Model this program was compiled from.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Static checks a well-formed compiler output must satisfy.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.instructions.is_empty() {
            return Err(ProgramError::Empty);
        }
        if self.instructions.last().map(|i| i.opcode) != Some(Opcode::End) {
            return Err(ProgramError::MissingEnd);
        }
        for (i, instr) in self.instructions.iter().enumerate() {
            match instr.opcode {
                Opcode::End if i + 1 != self.instructions.len() => {
                    return Err(ProgramError::EarlyEnd(i));
                }
                op if op.is_compute() && instr.macs == 0 => {
                    return Err(ProgramError::EmptyCompute(i));
                }
                op if op.is_memory() && instr.bytes == 0 => {
                    return Err(ProgramError::EmptyTransfer(i));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// One scheduled instruction in the execution timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEntry {
    /// Index into the program's instruction stream.
    pub instruction: usize,
    /// Start time relative to inference start.
    pub start: SimTime,
    /// End time relative to inference start.
    pub end: SimTime,
}

/// Two-engine executor with double buffering.
#[derive(Debug, Clone)]
pub struct Executor {
    config: DpuConfig,
}

impl Executor {
    /// Creates an executor for the given DPU configuration.
    pub fn new(config: DpuConfig) -> Self {
        Executor { config }
    }

    fn compute_time_s(&self, instr: &Instruction) -> f64 {
        let eff = match instr.opcode {
            Opcode::Conv => LayerKind::Conv.compute_efficiency(),
            Opcode::DwConv => LayerKind::DepthwiseConv.compute_efficiency(),
            Opcode::Pool => LayerKind::Pool.compute_efficiency(),
            Opcode::Elew => LayerKind::Add.compute_efficiency(),
            Opcode::Fc => LayerKind::FullyConnected.compute_efficiency(),
            _ => return 0.0,
        };
        instr.macs as f64 / (self.config.peak_gmacs * 1e9 * eff)
    }

    fn memory_time_s(&self, instr: &Instruction) -> f64 {
        instr.bytes as f64 / (self.config.dram_bandwidth_gbps * 1e9)
    }

    /// Executes the program: memory and compute engines run concurrently
    /// (double buffering) but instructions on the *same* engine serialize,
    /// and a layer's compute cannot start before its LOAD finished.
    /// Returns the timeline and the end-to-end latency.
    ///
    /// # Errors
    ///
    /// Propagates [`Program::validate`] failures.
    pub fn run(&self, program: &Program) -> Result<(Vec<TimelineEntry>, SimTime), ProgramError> {
        program.validate()?;
        let mut timeline = Vec::with_capacity(program.len());
        let mut mem_free = 0.0f64; // next free time of the memory mover
        let mut compute_free = 0.0f64; // next free time of the compute array
        let mut layer_data_ready = 0.0f64; // when the pending LOAD completes
        for (i, instr) in program.instructions().iter().enumerate() {
            let (start, end) = match instr.opcode {
                Opcode::Load => {
                    let start = mem_free;
                    let end = start + self.memory_time_s(instr);
                    mem_free = end;
                    layer_data_ready = end;
                    (start, end)
                }
                Opcode::Save => {
                    // The save waits for the producing compute op.
                    let start = mem_free.max(compute_free);
                    let end = start + self.memory_time_s(instr);
                    mem_free = end;
                    (start, end)
                }
                Opcode::End => {
                    let t = mem_free.max(compute_free);
                    (t, t)
                }
                _ => {
                    // Compute waits for its own data and the engine.
                    let start = compute_free.max(layer_data_ready) + self.config.layer_overhead_s;
                    let end = start + self.compute_time_s(instr);
                    compute_free = end;
                    (start, end)
                }
            };
            timeline.push(TimelineEntry {
                instruction: i,
                start: SimTime::from_secs_f64(start),
                end: SimTime::from_secs_f64(end),
            });
        }
        let latency = timeline.last().map(|e| e.end).unwrap_or(SimTime::ZERO);
        Ok((timeline, latency))
    }

    /// End-to-end latency of a program (convenience wrapper).
    ///
    /// # Errors
    ///
    /// Propagates [`Program::validate`] failures.
    pub fn latency(&self, program: &Program) -> Result<SimTime, ProgramError> {
        Ok(self.run(program)?.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DpuSchedule;
    use dnn_models::zoo;

    fn resnet() -> &'static dnn_models::ModelArch {
        zoo().iter().find(|m| m.name == "resnet-50").unwrap()
    }

    #[test]
    fn compile_produces_valid_programs_for_whole_zoo() {
        for model in zoo() {
            let program = Program::compile(model);
            program
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", model.name));
            assert_eq!(program.model_name(), model.name);
            assert!(!program.is_empty());
        }
    }

    #[test]
    fn program_structure_per_layer() {
        let model = resnet();
        let program = Program::compile(model);
        // Every layer contributes an engine op; most also load and save.
        let compute_ops = program
            .instructions()
            .iter()
            .filter(|i| i.opcode.is_compute())
            .count();
        assert_eq!(compute_ops, model.layers.len());
        assert_eq!(program.instructions().last().unwrap().opcode, Opcode::End);
    }

    #[test]
    fn validate_catches_malformed_programs() {
        let model = resnet();
        let good = Program::compile(model);

        let mut empty = good.clone();
        empty.instructions.clear();
        assert_eq!(empty.validate(), Err(ProgramError::Empty));

        let mut no_end = good.clone();
        no_end.instructions.pop();
        assert_eq!(no_end.validate(), Err(ProgramError::MissingEnd));

        let mut early_end = good.clone();
        early_end.instructions.insert(
            0,
            Instruction {
                opcode: Opcode::End,
                macs: 0,
                bytes: 0,
                layer: String::new(),
            },
        );
        assert_eq!(early_end.validate(), Err(ProgramError::EarlyEnd(0)));

        let mut lazy = good.clone();
        let conv_idx = lazy
            .instructions
            .iter()
            .position(|i| i.opcode.is_compute())
            .unwrap();
        lazy.instructions[conv_idx].macs = 0;
        assert_eq!(lazy.validate(), Err(ProgramError::EmptyCompute(conv_idx)));
    }

    #[test]
    fn executor_latency_tracks_roofline_schedule() {
        // The ISA executor and the closed-form roofline must agree within
        // a modest factor (the executor has cross-layer overlap the
        // closed form approximates).
        let config = DpuConfig::default();
        let executor = Executor::new(config);
        for name in ["resnet-50", "mobilenet-v1", "vgg-19"] {
            let model = zoo().iter().find(|m| m.name == name).unwrap();
            let program = Program::compile(model);
            let isa_latency = executor.latency(&program).unwrap().as_secs_f64();
            let roofline = DpuSchedule::lower(model, &config)
                .inference_time()
                .as_secs_f64();
            let ratio = isa_latency / roofline;
            // The executor serializes save->next-load on the memory mover
            // and pays per-op issue overhead, so it can run somewhat past
            // the idealized closed form on memory-bound networks.
            assert!(
                (0.5..2.0).contains(&ratio),
                "{name}: isa {isa_latency}s vs roofline {roofline}s"
            );
        }
    }

    #[test]
    fn double_buffering_beats_serial_execution() {
        let model = resnet();
        let program = Program::compile(model);
        let config = DpuConfig::default();
        let executor = Executor::new(config);
        let (_, overlapped) = executor.run(&program).unwrap();
        // Serial reference: every instruction back-to-back, including the
        // same per-op issue overhead the executor pays.
        let serial: f64 = program
            .instructions()
            .iter()
            .map(|i| {
                let overhead = if i.opcode.is_compute() {
                    config.layer_overhead_s
                } else {
                    0.0
                };
                executor.compute_time_s(i) + executor.memory_time_s(i) + overhead
            })
            .sum();
        assert!(
            overlapped.as_secs_f64() < serial,
            "overlap must shorten execution ({} vs {serial})",
            overlapped.as_secs_f64()
        );
    }

    #[test]
    fn timeline_is_causally_ordered_per_engine() {
        let program = Program::compile(resnet());
        let executor = Executor::new(DpuConfig::default());
        let (timeline, latency) = executor.run(&program).unwrap();
        let mut mem_end = SimTime::ZERO;
        let mut compute_end = SimTime::ZERO;
        for entry in &timeline {
            let instr = &program.instructions()[entry.instruction];
            assert!(entry.end >= entry.start);
            assert!(entry.end <= latency);
            if instr.opcode.is_memory() {
                assert!(entry.start >= mem_end, "memory engine overlap at {entry:?}");
                mem_end = entry.end;
            } else if instr.opcode.is_compute() {
                assert!(
                    entry.start >= compute_end,
                    "compute engine overlap at {entry:?}"
                );
                compute_end = entry.end;
            }
        }
    }

    #[test]
    fn error_display() {
        assert!(ProgramError::Empty.to_string().contains("empty"));
        assert!(ProgramError::EarlyEnd(3).to_string().contains('3'));
    }
}
