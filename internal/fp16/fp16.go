// Package fp16 implements IEEE 754 half-precision (binary16) conversion.
//
// The Q-VR LIWC hardware stores latency gradient offsets as 16-bit
// half-precision floating-point numbers in its on-chip SRAM table
// (Section 4.3 of the paper: "We use a 16 bit half-precision
// floating-point number to represent the latency gradient offset").
// This package models the exact storage format so the simulated
// controller experiences the same quantization the hardware would.
package fp16

import "math"

// Bits is a raw binary16 value: 1 sign bit, 5 exponent bits,
// 10 mantissa bits.
type Bits uint16

const (
	signMask16 = 0x8000
	expMask16  = 0x7C00
	manMask16  = 0x03FF

	// SmallestNonzero is the smallest positive subnormal (2^-24).
	SmallestNonzero = 5.9604644775390625e-08
)

// FromFloat64 converts a float64 to half precision with
// round-to-nearest-even, the IEEE default rounding mode. Values beyond
// the binary16 range become +/-Inf; NaN is preserved.
func FromFloat64(f float64) Bits {
	b := math.Float32bits(float32(f))
	sign := uint16(b>>16) & signMask16
	exp := int32(b>>23) & 0xFF
	man := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if man != 0 {
			return Bits(sign | expMask16 | 0x200) // quiet NaN
		}
		return Bits(sign | expMask16)
	case exp == 0 && man == 0:
		return Bits(sign) // signed zero
	}

	// Rebias from float32 (127) to float16 (15).
	e := exp - 127 + 15
	if e >= 0x1F {
		return Bits(sign | expMask16) // overflow to Inf
	}
	if e <= 0 {
		// Subnormal half: shift mantissa (with implicit 1) right.
		if e < -10 {
			return Bits(sign) // underflow to zero
		}
		man |= 0x800000 // implicit leading 1
		shift := uint32(14 - e)
		half := man >> shift
		// Round to nearest even.
		rem := man & ((1 << shift) - 1)
		mid := uint32(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return Bits(sign | uint16(half))
	}

	// Normal half: keep top 10 mantissa bits, round to nearest even.
	half := uint16(e)<<10 | uint16(man>>13)
	rem := man & 0x1FFF
	if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
		half++ // may carry into exponent, which is correct behaviour
	}
	return Bits(sign | half)
}

// Float64 converts a half-precision value back to float64 exactly
// (binary16 is a subset of binary64).
func (h Bits) Float64() float64 {
	sign := float64(1)
	if h&signMask16 != 0 {
		sign = -1
	}
	exp := int(h&expMask16) >> 10
	man := int(h & manMask16)
	switch exp {
	case 0:
		// Subnormal: value = man * 2^-24.
		return sign * float64(man) * math.Pow(2, -24)
	case 0x1F:
		if man != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	}
	return sign * (1 + float64(man)/1024) * math.Pow(2, float64(exp-15))
}

// IsNaN reports whether h encodes NaN.
func (h Bits) IsNaN() bool {
	return h&expMask16 == expMask16 && h&manMask16 != 0
}

// IsInf reports whether h encodes an infinity.
func (h Bits) IsInf() bool {
	return h&expMask16 == expMask16 && h&manMask16 == 0
}

// Quantize rounds a float64 through half precision and back. The LIWC
// table applies this on every gradient store so the learning loop sees
// hardware-accurate precision loss.
func Quantize(f float64) float64 { return FromFloat64(f).Float64() }
