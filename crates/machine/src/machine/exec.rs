//! Instruction execution: the fetch/execute loop and operand evaluation.
//!
//! `step()` is the simulator's hot loop. Its structure is deliberate:
//!
//! * Fetch copies one pre-decoded `(instruction, PC)` pair out of the flat
//!   [`DecodedProgram`](laser_isa::decoded::DecodedProgram) arrays — no PC
//!   arithmetic, no borrow held into the program while executing.
//! * Scheduling reads the [`CoreSched`](super::sched::CoreSched) heap root in
//!   O(1) and repositions it in O(log cores) after the cost is charged.
//! * The no-hook path is a single branch per dispatch site
//!   (`self.hook.is_attached()`); hook argument marshalling only happens on
//!   the hooked path.

use laser_isa::inst::{Inst, MemAddr, Operand, RmwOp, Terminator, NUM_REGS};

use crate::addr::Addr;
use crate::event::MemAccessKind;
use crate::hook::{HookAction, MemOp};
use crate::machine::{Machine, MachineError, RunResult, RunStatus};

impl Machine {
    /// Run at most `n` instructions. Returns [`RunStatus::Done`] once all
    /// threads have halted.
    pub fn run_steps(&mut self, n: u64) -> RunStatus {
        for _ in 0..n {
            if !self.step() {
                return RunStatus::Done;
            }
        }
        if self.is_done() {
            RunStatus::Done
        } else {
            RunStatus::Running
        }
    }

    /// Run until every thread halts.
    ///
    /// # Errors
    /// Returns [`MachineError::MaxStepsExceeded`] if the configured step
    /// budget runs out first.
    pub fn run_to_completion(&mut self) -> Result<RunResult, MachineError> {
        while !self.is_done() {
            if self.steps >= self.config.max_steps {
                return Err(MachineError::MaxStepsExceeded {
                    steps: self.config.max_steps,
                });
            }
            self.step();
        }
        Ok(self.result())
    }

    pub(crate) fn eval_operand(regs: &[u64; NUM_REGS], op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => regs[r.0 as usize],
            Operand::Imm(v) => v,
        }
    }

    pub(crate) fn eval_addr(regs: &[u64; NUM_REGS], addr: &MemAddr) -> Addr {
        let mut a = regs[addr.base.0 as usize];
        if let Some((idx, scale)) = addr.index {
            a = a.wrapping_add(regs[idx.0 as usize].wrapping_mul(scale as u64));
        }
        a.wrapping_add(addr.offset as u64)
    }

    pub(crate) fn mask(value: u64, size: u8) -> u64 {
        if size >= 8 {
            value
        } else {
            value & ((1u64 << (8 * size)) - 1)
        }
    }

    /// Execute one instruction on the thread whose core clock is lowest.
    /// Returns false when every thread has halted.
    pub(crate) fn step(&mut self) -> bool {
        let Some(ti) = self.sched.pick() else {
            return false;
        };
        self.steps += 1;
        self.inner.stats.instructions += 1;

        let core = self.threads[ti].core;
        let block_id = self.threads[ti].block;
        let idx = self.threads[ti].idx;
        let now = self.core_cycles[core];
        let lat = self.hot;

        // Everything decoded is `Copy`: fetch copies one entry out of the
        // flat block array, releasing the borrow on the program before
        // execution mutates the machine.
        let fetched = {
            let blk = self.decoded.block(block_id);
            blk.insts().get(idx).copied().ok_or_else(|| blk.term())
        };
        if let Ok(fetched) = fetched {
            let inst = fetched.inst;
            let pc = fetched.pc;
            let mut cost = 0u64;
            match inst {
                Inst::Load { dst, addr, size } => {
                    self.inner.stats.loads += 1;
                    let a = Self::eval_addr(&self.threads[ti].regs, &addr);
                    let action = if self.hook.is_attached() {
                        let op = MemOp {
                            pc,
                            addr: a,
                            size,
                            kind: MemAccessKind::Load,
                            store_value: None,
                        };
                        self.hook_mem_op(core, now, &op)
                            .unwrap_or(HookAction::Passthrough)
                    } else {
                        HookAction::Passthrough
                    };
                    match action {
                        HookAction::Handled {
                            load_value,
                            extra_cycles,
                        } => {
                            self.inner.stats.hook_handled_ops += 1;
                            self.threads[ti].regs[dst.0 as usize] = load_value.unwrap_or(0);
                            cost += extra_cycles;
                        }
                        HookAction::Passthrough => {
                            let (v, c) = self.inner.access(
                                core,
                                pc,
                                a,
                                size,
                                false,
                                MemAccessKind::Load,
                                None,
                                now,
                            );
                            self.threads[ti].regs[dst.0 as usize] = v;
                            cost += c;
                        }
                    }
                }
                Inst::Store { src, addr, size } => {
                    self.inner.stats.stores += 1;
                    let a = Self::eval_addr(&self.threads[ti].regs, &addr);
                    let v = Self::mask(Self::eval_operand(&self.threads[ti].regs, src), size);
                    let action = if self.hook.is_attached() {
                        let op = MemOp {
                            pc,
                            addr: a,
                            size,
                            kind: MemAccessKind::Store,
                            store_value: Some(v),
                        };
                        self.hook_mem_op(core, now, &op)
                            .unwrap_or(HookAction::Passthrough)
                    } else {
                        HookAction::Passthrough
                    };
                    match action {
                        HookAction::Handled { extra_cycles, .. } => {
                            self.inner.stats.hook_handled_ops += 1;
                            cost += extra_cycles;
                        }
                        HookAction::Passthrough => {
                            let (_, c) = self.inner.access(
                                core,
                                pc,
                                a,
                                size,
                                true,
                                MemAccessKind::Store,
                                Some(v),
                                now,
                            );
                            cost += c;
                        }
                    }
                }
                Inst::AtomicRmw {
                    op,
                    dst,
                    addr,
                    operand,
                    expected,
                    size,
                } => {
                    self.inner.stats.atomics += 1;
                    // Atomics are fences: give the hook a chance to flush.
                    cost += self.hook_fence(core, now, pc);
                    let a = Self::eval_addr(&self.threads[ti].regs, &addr);
                    let operand_v =
                        Self::mask(Self::eval_operand(&self.threads[ti].regs, operand), size);
                    // The read-modify-write is a single exclusive-ownership
                    // access; its load uop is what the precise PEBS event
                    // samples, so record it as a load-kind HITM.
                    let old = self.inner.mem.read(a, size);
                    let new = match op {
                        RmwOp::FetchAdd => Self::mask(old.wrapping_add(operand_v), size),
                        RmwOp::Exchange => operand_v,
                        RmwOp::CompareExchange => {
                            let exp = Self::mask(
                                Self::eval_operand(
                                    &self.threads[ti].regs,
                                    expected.unwrap_or(Operand::Imm(0)),
                                ),
                                size,
                            );
                            if old == exp {
                                operand_v
                            } else {
                                old
                            }
                        }
                    };
                    let (_, c) = self.inner.access(
                        core,
                        pc,
                        a,
                        size,
                        true,
                        MemAccessKind::Load,
                        Some(new),
                        now,
                    );
                    self.threads[ti].regs[dst.0 as usize] = old;
                    cost += c + lat.atomic_extra;
                }
                Inst::MemRmw {
                    op,
                    addr,
                    operand,
                    size,
                } => {
                    self.inner.stats.loads += 1;
                    self.inner.stats.stores += 1;
                    let a = Self::eval_addr(&self.threads[ti].regs, &addr);
                    let rhs = Self::mask(Self::eval_operand(&self.threads[ti].regs, operand), size);
                    // Load half (this is the uop Haswell's precise HITM event
                    // samples, so a remote-Modified hit is recorded as a load).
                    let load_action = if self.hook.is_attached() {
                        let load_op = MemOp {
                            pc,
                            addr: a,
                            size,
                            kind: MemAccessKind::Load,
                            store_value: None,
                        };
                        self.hook_mem_op(core, now, &load_op)
                            .unwrap_or(HookAction::Passthrough)
                    } else {
                        HookAction::Passthrough
                    };
                    let current = match load_action {
                        HookAction::Handled {
                            load_value,
                            extra_cycles,
                        } => {
                            self.inner.stats.hook_handled_ops += 1;
                            cost += extra_cycles;
                            load_value.unwrap_or(0)
                        }
                        HookAction::Passthrough => {
                            let (v, c) = self.inner.access(
                                core,
                                pc,
                                a,
                                size,
                                false,
                                MemAccessKind::Load,
                                None,
                                now,
                            );
                            cost += c;
                            v
                        }
                    };
                    let new = Self::mask(op.apply(current, rhs), size);
                    let store_action = if self.hook.is_attached() {
                        let store_op = MemOp {
                            pc,
                            addr: a,
                            size,
                            kind: MemAccessKind::Store,
                            store_value: Some(new),
                        };
                        self.hook_mem_op(core, now, &store_op)
                            .unwrap_or(HookAction::Passthrough)
                    } else {
                        HookAction::Passthrough
                    };
                    match store_action {
                        HookAction::Handled { extra_cycles, .. } => {
                            self.inner.stats.hook_handled_ops += 1;
                            cost += extra_cycles;
                        }
                        HookAction::Passthrough => {
                            let (_, c) = self.inner.access(
                                core,
                                pc,
                                a,
                                size,
                                true,
                                MemAccessKind::Store,
                                Some(new),
                                now,
                            );
                            cost += c;
                        }
                    }
                }
                Inst::Mov { dst, src } => {
                    self.threads[ti].regs[dst.0 as usize] =
                        Self::eval_operand(&self.threads[ti].regs, src);
                    cost += lat.alu;
                }
                Inst::Alu { op, dst, lhs, rhs } => {
                    let l = self.threads[ti].regs[lhs.0 as usize];
                    let r = Self::eval_operand(&self.threads[ti].regs, rhs);
                    self.threads[ti].regs[dst.0 as usize] = op.apply(l, r);
                    cost += lat.alu;
                }
                Inst::Cmp { op, dst, lhs, rhs } => {
                    let l = self.threads[ti].regs[lhs.0 as usize];
                    let r = Self::eval_operand(&self.threads[ti].regs, rhs);
                    self.threads[ti].regs[dst.0 as usize] = op.apply(l, r);
                    cost += lat.alu;
                }
                Inst::Fence => {
                    self.inner.stats.fences += 1;
                    cost += self.hook_fence(core, now, pc);
                    cost += lat.fence;
                }
                Inst::Pause => {
                    cost += lat.pause;
                }
                Inst::Nop => {
                    cost += lat.alu;
                }
            }
            self.threads[ti].idx += 1;
            self.core_cycles[core] += cost;
            self.sched.reposition(&self.core_cycles, core);
        } else {
            #[expect(
                clippy::unwrap_used,
                reason = "the fetch above returned Err on this path; unwrap_err cannot fire"
            )]
            let term = fetched.unwrap_err();
            let mut cost = lat.branch;
            match term {
                Terminator::Jump(target) => {
                    self.threads[ti].block = target;
                    self.threads[ti].idx = 0;
                    cost += self.hook_block_entry(core, now, target);
                    self.core_cycles[core] += cost;
                    self.sched.reposition(&self.core_cycles, core);
                }
                Terminator::Branch {
                    cond,
                    if_true,
                    if_false,
                } => {
                    let c = self.threads[ti].regs[cond.0 as usize];
                    let target = if c != 0 { if_true } else { if_false };
                    self.threads[ti].block = target;
                    self.threads[ti].idx = 0;
                    cost += self.hook_block_entry(core, now, target);
                    self.core_cycles[core] += cost;
                    self.sched.reposition(&self.core_cycles, core);
                }
                Terminator::Halt => {
                    cost += self.hook_thread_exit(core, now);
                    self.threads[ti].halted = true;
                    self.core_cycles[core] += cost;
                    self.sched.on_halt(&self.core_cycles, core);
                }
            }
        }
        !self.is_done()
    }
}
