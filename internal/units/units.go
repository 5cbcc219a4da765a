// Package units provides typed helpers for link rates and byte sizes used
// throughout the simulator.
package units

import (
	"fmt"

	"flexpass/internal/sim"
)

// Rate is a link or pacing rate in bits per second.
type Rate int64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// String formats the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2fGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.2fMbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.2fKbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// Gbits reports the rate as a floating-point number of gigabits per second.
func (r Rate) Gbits() float64 { return float64(r) / float64(Gbps) }

// Scale returns r scaled by f, rounding to the nearest bit per second.
func (r Rate) Scale(f float64) Rate { return Rate(float64(r)*f + 0.5) }

// TxTime returns the serialization delay of bytes at rate r.
func (r Rate) TxTime(bytes int) sim.Time {
	if r <= 0 {
		panic("units: TxTime on non-positive rate")
	}
	// bits * ps-per-second / rate, computed in int64 without overflow for
	// realistic packet sizes (bytes*8*1e12 fits int64 for bytes < ~1.1e6).
	bits := int64(bytes) * 8
	return sim.Time(bits * int64(sim.Second) / int64(r))
}

// RateOf returns the average rate at which bytes were moved over duration d.
func RateOf(bytes int64, d sim.Time) Rate {
	if d <= 0 {
		return 0
	}
	bits := float64(bytes) * 8
	return Rate(bits / d.Seconds())
}

// ByteSize is a data volume in bytes.
type ByteSize int64

// Common sizes.
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	GB            = 1000 * MB
	KiB           = 1024 * Byte
	MiB           = 1024 * KiB
)

// String formats the size with an adaptive unit.
func (b ByteSize) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}
