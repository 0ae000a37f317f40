//! The instruction set.

use std::fmt;

/// A general-purpose register; the file has [`Reg::COUNT`] of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// Size of the architectural register file.
    pub const COUNT: usize = 32;
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Multiplication (wrapping).
    Mul,
    /// Division; division by zero yields 0 (matches the machines' trap-free
    /// behaviour, documented rather than hidden).
    Div,
    /// Remainder; by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (by rhs & 63).
    Shl,
    /// Arithmetic shift right (by rhs & 63).
    Shr,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AluOp {
    /// Applies the operation.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        }
    }
}

/// Branch conditions comparing two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// Evaluates the condition.
    pub fn holds(self, a: i64, b: i64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }
}

/// One machine instruction.
///
/// Memory operands are `base` register + constant `offset`; the effective
/// word address is `regs[base] + offset` (negative results are an
/// execution error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `rd ← imm`.
    Li {
        /// Destination.
        rd: Reg,
        /// The constant.
        imm: i64,
    },
    /// `rd ← rs`.
    Move {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// `rd ← rs1 op rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// `rd ← rs op imm`.
    AluI {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs: Reg,
        /// Immediate right operand.
        imm: i64,
    },
    /// `rd ← mem[rs_base + offset]`.
    Load {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Constant offset (words).
        offset: i64,
    },
    /// `mem[rs_base + offset] ← rs`.
    Store {
        /// Value source.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Constant offset (words).
        offset: i64,
    },
    /// The Ultracomputer's atomic `rd ← FETCH-AND-ADD(mem[base+offset],
    /// inc)` (§1.2.3).
    FetchAdd {
        /// Receives the fetched (pre-increment) value.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Constant offset (words).
        offset: i64,
        /// Register holding the addend.
        inc: Reg,
    },
    /// Atomic test-and-set: `rd ← mem[a]; mem[a] ← 1` (Hydra-style lock
    /// acquisition).
    TestSet {
        /// Receives the previous value (0 means the lock was free).
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Constant offset (words).
        offset: i64,
    },
    /// HEP-style read-when-full; busy-waits (retries) while empty.
    FeLoad {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Constant offset (words).
        offset: i64,
    },
    /// HEP-style write-when-empty; busy-waits while full.
    FeStore {
        /// Value source.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Constant offset (words).
        offset: i64,
    },
    /// Conditional branch to an absolute instruction index.
    Branch {
        /// Condition.
        cond: Cond,
        /// Left comparand.
        rs1: Reg,
        /// Right comparand.
        rs2: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Unconditional jump to an absolute instruction index.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Stops the core.
    Halt,
    /// Does nothing for one cycle.
    Nop,
}

/// A validated, executable instruction sequence.
///
/// Construct through [`ProgramBuilder`](crate::ProgramBuilder), which
/// resolves labels and checks branch targets and register indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub(crate) instrs: Vec<Instr>,
}

impl Program {
    /// The instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), -1);
        assert_eq!(AluOp::Mul.apply(4, 5), 20);
        assert_eq!(AluOp::Div.apply(7, 2), 3);
        assert_eq!(AluOp::Div.apply(7, 0), 0);
        assert_eq!(AluOp::Rem.apply(7, 3), 1);
        assert_eq!(AluOp::Rem.apply(7, 0), 0);
        assert_eq!(AluOp::And.apply(0b110, 0b011), 0b010);
        assert_eq!(AluOp::Or.apply(0b110, 0b011), 0b111);
        assert_eq!(AluOp::Xor.apply(0b110, 0b011), 0b101);
        assert_eq!(AluOp::Shl.apply(1, 4), 16);
        assert_eq!(AluOp::Shr.apply(-16, 2), -4);
        assert_eq!(AluOp::Min.apply(3, -2), -2);
        assert_eq!(AluOp::Max.apply(3, -2), 3);
    }

    #[test]
    fn alu_wrapping_does_not_panic() {
        assert_eq!(AluOp::Add.apply(i64::MAX, 1), i64::MIN);
        assert_eq!(AluOp::Mul.apply(i64::MAX, 2), -2);
        assert_eq!(AluOp::Shl.apply(1, 64), 1); // shift masked to 0
    }

    #[test]
    fn cond_semantics() {
        assert!(Cond::Eq.holds(1, 1));
        assert!(Cond::Ne.holds(1, 2));
        assert!(Cond::Lt.holds(-1, 0));
        assert!(Cond::Le.holds(0, 0));
        assert!(Cond::Gt.holds(5, 4));
        assert!(Cond::Ge.holds(4, 4));
        assert!(!Cond::Lt.holds(1, 1));
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg(7).to_string(), "r7");
    }
}
