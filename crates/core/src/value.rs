use std::fmt;

use ocapi_fixp::{Fix, Format, Overflow, Rounding};

use crate::CoreError;

/// The static type of a signal.
///
/// The paper's signals are "either floating point values or else simulated
/// fixed point values"; control signals (instructions, conditions,
/// addresses) are bit words. We make all four explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigType {
    /// A single control bit.
    Bool,
    /// An unsigned bit word of the given width (1..=64), with wrapping
    /// arithmetic — used for instructions, program counters, addresses.
    Bits(u32),
    /// A signed fixed-point value of the given format.
    Fixed(Format),
    /// A double-precision float (for not-yet-quantised high-level models).
    Float,
}

impl fmt::Display for SigType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigType::Bool => write!(f, "bool"),
            SigType::Bits(w) => write!(f, "bits<{w}>"),
            SigType::Fixed(fmt_) => write!(f, "fixed{fmt_}"),
            SigType::Float => write!(f, "float"),
        }
    }
}

impl SigType {
    /// Width in bits of the hardware representation of this type.
    pub fn width(self) -> u32 {
        match self {
            SigType::Bool => 1,
            SigType::Bits(w) => w,
            SigType::Fixed(fmt) => fmt.wl(),
            SigType::Float => 64,
        }
    }

    /// The value a register of this type holds before initialisation.
    pub fn zero(self) -> Value {
        match self {
            SigType::Bool => Value::Bool(false),
            SigType::Bits(w) => Value::Bits { width: w, bits: 0 },
            SigType::Fixed(fmt) => Value::Fixed(Fix::zero(fmt)),
            SigType::Float => Value::Float(0.0),
        }
    }
}

/// A runtime signal value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A control bit.
    Bool(bool),
    /// An unsigned bit word (bits above `width` are zero).
    Bits {
        /// Width in bits (1..=64).
        width: u32,
        /// The value, masked to `width` bits.
        bits: u64,
    },
    /// A fixed-point value.
    Fixed(Fix),
    /// A float value.
    Float(f64),
}

impl Value {
    /// Convenience constructor for a bit word, masking to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn bits(width: u32, bits: u64) -> Value {
        assert!((1..=64).contains(&width), "bit width must be 1..=64");
        Value::Bits {
            width,
            bits: mask(width, bits),
        }
    }

    /// The type of this value.
    pub fn sig_type(&self) -> SigType {
        match self {
            Value::Bool(_) => SigType::Bool,
            Value::Bits { width, .. } => SigType::Bits(*width),
            Value::Fixed(v) => SigType::Fixed(v.format()),
            Value::Float(_) => SigType::Float,
        }
    }

    /// Extracts a bool, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts the bit word, if this is a `Bits`.
    pub fn as_bits(&self) -> Option<u64> {
        match self {
            Value::Bits { bits, .. } => Some(*bits),
            _ => None,
        }
    }

    /// Extracts the fixed-point value, if this is a `Fixed`.
    pub fn as_fixed(&self) -> Option<Fix> {
        match self {
            Value::Fixed(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric view of the value as a double (bools become 0/1).
    pub fn to_f64(&self) -> f64 {
        match self {
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Bits { bits, .. } => *bits as f64,
            Value::Fixed(v) => v.to_f64(),
            Value::Float(v) => *v,
        }
    }

    /// The raw 64-bit encoding of the value — the representation used
    /// by the compiled back-end's state slots and by simulator
    /// snapshots: `Bool` → 0/1, `Bits` → the word, `Fixed` → the
    /// mantissa bits, `Float` → the IEEE-754 bit pattern.
    #[inline]
    pub fn to_raw(&self) -> u64 {
        match self {
            Value::Bool(b) => *b as u64,
            Value::Bits { bits, .. } => *bits,
            Value::Fixed(f) => f.mantissa() as u64,
            Value::Float(x) => x.to_bits(),
        }
    }

    /// Whether `raw` is the [`Value::to_raw`] encoding of some value of
    /// type `ty`: a `Bool` is 0 or 1, a bit word fits its width, and a
    /// fixed-point mantissa is within its format's range.
    pub(crate) fn raw_fits(ty: SigType, raw: u64) -> bool {
        match ty {
            SigType::Bool => raw <= 1,
            SigType::Bits(w) => mask(w, raw) == raw,
            SigType::Fixed(f) => (f.min_mantissa()..=f.max_mantissa()).contains(&(raw as i64)),
            SigType::Float => true,
        }
    }

    /// Rebuilds a value of type `ty` from its [`Value::to_raw`]
    /// encoding.
    #[inline]
    pub fn from_raw(ty: SigType, raw: u64) -> Value {
        match ty {
            SigType::Bool => Value::Bool(raw != 0),
            SigType::Bits(w) => Value::bits(w, raw),
            SigType::Fixed(f) => Value::Fixed(Fix::from_raw(raw as i64, f)),
            SigType::Float => Value::Float(f64::from_bits(raw)),
        }
    }

    /// Checks that this value matches `ty` exactly.
    pub fn check_type(&self, ty: SigType, context: &str) -> Result<(), CoreError> {
        if self.sig_type() == ty {
            Ok(())
        } else {
            Err(CoreError::ValueType {
                context: context.to_owned(),
                expected: ty,
            })
        }
    }

    /// Like [`Value::check_type`] but builds the error context lazily.
    /// The simulator `set_input`/`poke_net` paths run this every cycle;
    /// an eager `format!` there is an allocation per driven input.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ValueType`] when the value's type differs
    /// from `ty`.
    pub fn check_type_with(
        &self,
        ty: SigType,
        context: impl FnOnce() -> String,
    ) -> Result<(), CoreError> {
        if self.sig_type() == ty {
            Ok(())
        } else {
            Err(CoreError::ValueType {
                context: context(),
                expected: ty,
            })
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{}", if *b { 1 } else { 0 }),
            Value::Bits { width, bits } => write!(f, "{bits}u{width}"),
            Value::Fixed(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
        }
    }
}

fn mask(width: u32, bits: u64) -> u64 {
    if width >= 64 {
        bits
    } else {
        bits & ((1u64 << width) - 1)
    }
}

/// Binary operators available on signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (`Fixed`, `Float`, wrapping on `Bits`).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Bitwise/logical AND (`Bits`, `Bool`).
    And,
    /// Bitwise/logical OR.
    Or,
    /// Bitwise/logical XOR.
    Xor,
    /// Equality (any type) → `Bool`.
    Eq,
    /// Inequality → `Bool`.
    Ne,
    /// Less-than → `Bool` (unsigned on `Bits`).
    Lt,
    /// Less-or-equal → `Bool`.
    Le,
    /// Greater-than → `Bool`.
    Gt,
    /// Greater-or-equal → `Bool`.
    Ge,
}

impl BinOp {
    /// The result type of applying this operator, or a type error.
    pub fn result_type(self, l: SigType, r: SigType) -> Result<SigType, CoreError> {
        use BinOp::*;
        let err = || CoreError::TypeMismatch {
            op: format!("{self:?}"),
            left: l,
            right: r,
        };
        match self {
            Add | Sub | Mul => match (l, r) {
                (SigType::Bits(a), SigType::Bits(b)) if a == b => Ok(SigType::Bits(a)),
                (SigType::Float, SigType::Float) => Ok(SigType::Float),
                (SigType::Fixed(a), SigType::Fixed(b)) => {
                    // Exact growth, mirroring Fix::wide_* — capped at 63 bits.
                    let fmt = match self {
                        Add | Sub => {
                            let fb = a.frac_bits().max(b.frac_bits());
                            let iwl = (a.iwl().max(b.iwl()) + 1).min(63);
                            Format::new((iwl + fb).clamp(1, 63), iwl)
                        }
                        Mul => {
                            let fb = a.frac_bits() + b.frac_bits();
                            let iwl = (a.iwl() + b.iwl()).min(63);
                            Format::new((iwl + fb).clamp(1, 63), iwl)
                        }
                        _ => unreachable!(),
                    };
                    match fmt {
                        Ok(fmt) => Ok(SigType::Fixed(fmt)),
                        Err(_) => Err(err()),
                    }
                }
                _ => Err(err()),
            },
            And | Or | Xor => match (l, r) {
                (SigType::Bool, SigType::Bool) => Ok(SigType::Bool),
                (SigType::Bits(a), SigType::Bits(b)) if a == b => Ok(SigType::Bits(a)),
                _ => Err(err()),
            },
            Eq | Ne | Lt | Le | Gt | Ge => {
                let compatible = match (l, r) {
                    (SigType::Bool, SigType::Bool) => true,
                    (SigType::Bits(a), SigType::Bits(b)) => a == b,
                    (SigType::Fixed(_), SigType::Fixed(_)) => true,
                    (SigType::Float, SigType::Float) => true,
                    _ => false,
                };
                if compatible {
                    Ok(SigType::Bool)
                } else {
                    Err(err())
                }
            }
        }
    }

    /// Applies the operator to two well-typed values.
    ///
    /// # Panics
    ///
    /// Panics on operand types that [`BinOp::result_type`] would have
    /// rejected — simulation only ever sees type-checked graphs.
    pub fn apply(self, l: Value, r: Value) -> Value {
        use BinOp::*;
        match self {
            Add | Sub | Mul => match (l, r) {
                (Value::Bits { width, bits: a }, Value::Bits { bits: b, .. }) => {
                    let v = match self {
                        Add => a.wrapping_add(b),
                        Sub => a.wrapping_sub(b),
                        Mul => a.wrapping_mul(b),
                        _ => unreachable!(),
                    };
                    Value::bits(width, v)
                }
                (Value::Float(a), Value::Float(b)) => Value::Float(match self {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    _ => unreachable!(),
                }),
                (Value::Fixed(a), Value::Fixed(b)) => {
                    let wide = match self {
                        Add => a.wide_add(b),
                        Sub => a.wide_sub(b),
                        Mul => a.wide_mul(b),
                        _ => unreachable!(),
                    };
                    Value::Fixed(wide)
                }
                _ => panic!("ill-typed arithmetic operands {l} / {r}"),
            },
            And | Or | Xor => match (l, r) {
                (Value::Bool(a), Value::Bool(b)) => Value::Bool(match self {
                    And => a & b,
                    Or => a | b,
                    Xor => a ^ b,
                    _ => unreachable!(),
                }),
                (Value::Bits { width, bits: a }, Value::Bits { bits: b, .. }) => {
                    let v = match self {
                        And => a & b,
                        Or => a | b,
                        Xor => a ^ b,
                        _ => unreachable!(),
                    };
                    Value::bits(width, v)
                }
                _ => panic!("ill-typed logic operands {l} / {r}"),
            },
            Eq | Ne | Lt | Le | Gt | Ge => {
                let ord = match (l, r) {
                    (Value::Bool(a), Value::Bool(b)) => a.cmp(&b),
                    (Value::Bits { bits: a, .. }, Value::Bits { bits: b, .. }) => a.cmp(&b),
                    (Value::Fixed(a), Value::Fixed(b)) => a.cmp(&b),
                    (Value::Float(a), Value::Float(b)) => {
                        a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
                    }
                    _ => panic!("ill-typed comparison operands {l} / {r}"),
                };
                Value::Bool(match self {
                    Eq => ord.is_eq(),
                    Ne => ord.is_ne(),
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    Ge => ord.is_ge(),
                    _ => unreachable!(),
                })
            }
        }
    }
}

/// Unary operators available on signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical/bitwise complement (`Bool`, `Bits`).
    Not,
    /// Arithmetic negation (`Fixed`, `Float`; two's complement on `Bits`).
    Neg,
    /// Constant left shift on `Bits` (zero fill, wrapping).
    Shl(u32),
    /// Constant (logical) right shift on `Bits`.
    Shr(u32),
    /// Bit-field extraction on `Bits`: `lo..lo+width`.
    Slice {
        /// Lowest extracted bit.
        lo: u32,
        /// Number of extracted bits.
        width: u32,
    },
    /// Quantise a `Fixed` or `Float` to a fixed-point format.
    ToFixed(Format, Rounding, Overflow),
    /// Reinterpret as a bit word of the given width: `Bool` → 0/1,
    /// `Bits` → resize (zero-extend/truncate), `Fixed` → raw mantissa
    /// bits (two's complement).
    ToBits(u32),
    /// `Bits`/`Bool`/`Fixed` to float.
    ToFloat,
    /// Non-zero test → `Bool`.
    ToBool,
}

impl UnOp {
    /// The result type of applying this operator, or a type error.
    pub fn result_type(self, a: SigType) -> Result<SigType, CoreError> {
        use UnOp::*;
        let err = || CoreError::TypeMismatch {
            op: format!("{self:?}"),
            left: a,
            right: a,
        };
        match self {
            Not => match a {
                SigType::Bool | SigType::Bits(_) => Ok(a),
                _ => Err(err()),
            },
            Neg => match a {
                SigType::Fixed(_) | SigType::Float | SigType::Bits(_) => Ok(match a {
                    SigType::Fixed(f) => {
                        // one extra integer bit for -min
                        let iwl = (f.iwl() + 1).min(63);
                        let wl = (f.wl() + 1).min(63);
                        SigType::Fixed(Format::new(wl, iwl).map_err(|_| err())?)
                    }
                    other => other,
                }),
                SigType::Bool => Err(err()),
            },
            Shl(_) | Shr(_) => match a {
                SigType::Bits(_) => Ok(a),
                _ => Err(err()),
            },
            Slice { lo, width } => match a {
                SigType::Bits(w) if lo + width <= w && width >= 1 => Ok(SigType::Bits(width)),
                _ => Err(err()),
            },
            ToFixed(fmt, _, _) => match a {
                SigType::Fixed(_) | SigType::Float => Ok(SigType::Fixed(fmt)),
                _ => Err(err()),
            },
            ToBits(w) => {
                if !(1..=64).contains(&w) {
                    return Err(err());
                }
                match a {
                    SigType::Bool | SigType::Bits(_) => Ok(SigType::Bits(w)),
                    SigType::Fixed(f) if f.wl() <= w => Ok(SigType::Bits(w)),
                    _ => Err(err()),
                }
            }
            ToFloat => Ok(SigType::Float),
            ToBool => Ok(SigType::Bool),
        }
    }

    /// Applies the operator to a well-typed value.
    ///
    /// # Panics
    ///
    /// Panics on operand types that [`UnOp::result_type`] would have
    /// rejected.
    pub fn apply(self, a: Value) -> Value {
        use UnOp::*;
        match self {
            Not => match a {
                Value::Bool(b) => Value::Bool(!b),
                Value::Bits { width, bits } => Value::bits(width, !bits),
                _ => panic!("ill-typed Not operand {a}"),
            },
            Neg => match a {
                Value::Fixed(v) => Value::Fixed(-v),
                Value::Float(v) => Value::Float(-v),
                Value::Bits { width, bits } => Value::bits(width, bits.wrapping_neg()),
                _ => panic!("ill-typed Neg operand {a}"),
            },
            Shl(n) => match a {
                Value::Bits { width, bits } => {
                    Value::bits(width, if n >= 64 { 0 } else { bits << n })
                }
                _ => panic!("ill-typed Shl operand {a}"),
            },
            Shr(n) => match a {
                Value::Bits { width, bits } => {
                    Value::bits(width, if n >= 64 { 0 } else { bits >> n })
                }
                _ => panic!("ill-typed Shr operand {a}"),
            },
            Slice { lo, width } => match a {
                Value::Bits { bits, .. } => Value::bits(width, bits >> lo),
                _ => panic!("ill-typed Slice operand {a}"),
            },
            ToFixed(fmt, rounding, overflow) => match a {
                Value::Fixed(v) => Value::Fixed(v.cast(fmt, rounding, overflow)),
                Value::Float(v) => Value::Fixed(Fix::from_f64(v, fmt, rounding, overflow)),
                _ => panic!("ill-typed ToFixed operand {a}"),
            },
            ToBits(w) => match a {
                Value::Bool(b) => Value::bits(w, b as u64),
                Value::Bits { bits, .. } => Value::bits(w, bits),
                Value::Fixed(v) => Value::bits(w, v.mantissa() as u64),
                _ => panic!("ill-typed ToBits operand {a}"),
            },
            ToFloat => Value::Float(a.to_f64()),
            ToBool => Value::Bool(match a {
                Value::Bool(b) => b,
                Value::Bits { bits, .. } => bits != 0,
                Value::Fixed(v) => !v.is_zero(),
                Value::Float(v) => v != 0.0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b8(v: u64) -> Value {
        Value::bits(8, v)
    }

    #[test]
    fn bits_arithmetic_wraps() {
        assert_eq!(BinOp::Add.apply(b8(250), b8(10)), b8(4));
        assert_eq!(BinOp::Sub.apply(b8(3), b8(5)), b8(254));
        assert_eq!(BinOp::Mul.apply(b8(20), b8(20)), b8(144));
    }

    #[test]
    fn bool_logic() {
        assert_eq!(
            BinOp::And.apply(Value::Bool(true), Value::Bool(false)),
            Value::Bool(false)
        );
        assert_eq!(
            BinOp::Xor.apply(Value::Bool(true), Value::Bool(false)),
            Value::Bool(true)
        );
        assert_eq!(UnOp::Not.apply(Value::Bool(true)), Value::Bool(false));
    }

    #[test]
    fn comparisons() {
        assert_eq!(BinOp::Lt.apply(b8(3), b8(5)), Value::Bool(true));
        assert_eq!(BinOp::Ge.apply(b8(5), b8(5)), Value::Bool(true));
        assert_eq!(BinOp::Ne.apply(b8(5), b8(5)), Value::Bool(false));
    }

    #[test]
    fn slices_and_shifts() {
        let v = Value::bits(8, 0b1011_0100);
        assert_eq!(
            UnOp::Slice { lo: 2, width: 4 }.apply(v),
            Value::bits(4, 0b1101)
        );
        assert_eq!(UnOp::Shl(2).apply(v), Value::bits(8, 0b1101_0000));
        assert_eq!(UnOp::Shr(4).apply(v), Value::bits(8, 0b1011));
    }

    #[test]
    fn type_rules_reject_mixed_arith() {
        assert!(BinOp::Add
            .result_type(SigType::Bits(8), SigType::Bits(9))
            .is_err());
        assert!(BinOp::Add
            .result_type(SigType::Float, SigType::Bits(8))
            .is_err());
        assert!(BinOp::And
            .result_type(SigType::Float, SigType::Float)
            .is_err());
    }

    #[test]
    fn fixed_add_type_grows() {
        let a = Format::new(8, 4).unwrap();
        let t = BinOp::Add
            .result_type(SigType::Fixed(a), SigType::Fixed(a))
            .unwrap();
        assert_eq!(t, SigType::Fixed(Format::new(9, 5).unwrap()));
        let t = BinOp::Mul
            .result_type(SigType::Fixed(a), SigType::Fixed(a))
            .unwrap();
        assert_eq!(t, SigType::Fixed(Format::new(16, 8).unwrap()));
    }

    #[test]
    fn casts() {
        let f = Format::new(8, 4).unwrap();
        let v = UnOp::ToFixed(f, Rounding::Nearest, Overflow::Saturate).apply(Value::Float(1.3));
        assert_eq!(v.to_f64(), 1.3125);
        assert_eq!(UnOp::ToBits(4).apply(Value::Bool(true)), Value::bits(4, 1));
        assert_eq!(UnOp::ToBool.apply(Value::bits(8, 0)), Value::Bool(false));
        assert_eq!(UnOp::ToFloat.apply(Value::bits(8, 42)), Value::Float(42.0));
    }

    #[test]
    fn to_bits_of_fixed_exposes_mantissa() {
        let f = Format::new(8, 4).unwrap();
        let v = Value::Fixed(Fix::from_f64(
            -1.5,
            f,
            Rounding::Nearest,
            Overflow::Saturate,
        ));
        // -1.5 * 16 = -24 -> two's complement in 8 bits = 232
        assert_eq!(UnOp::ToBits(8).apply(v), Value::bits(8, 232));
    }

    #[test]
    fn zero_values() {
        assert_eq!(SigType::Bool.zero(), Value::Bool(false));
        assert_eq!(SigType::Bits(5).zero(), Value::bits(5, 0));
        assert_eq!(SigType::Float.zero(), Value::Float(0.0));
    }

    #[test]
    fn display() {
        assert_eq!(Value::bits(8, 42).to_string(), "42u8");
        assert_eq!(Value::Bool(true).to_string(), "1");
    }
}
