// Package units defines the bandwidth, data-size, and time conventions
// used throughout the MPICH-GQ reproduction.
//
// The paper expresses bandwidths in Kb/s and Mb/s with decimal (SI)
// prefixes: 1 Kb/s = 1000 bit/s, 1 Mb/s = 1000 Kb/s. Message and frame
// sizes are given in KB (1 KB = 1000 bytes) except where the paper
// clearly means kilobits (e.g. "8 Kb messages" in Figure 5); callers
// choose the constant that matches the paper's usage.
package units

import (
	"fmt"
	"time"
)

// BitRate is a bandwidth in bits per second.
type BitRate float64

// Bandwidth constants with SI (decimal) prefixes, as used in the paper.
const (
	BitPerSec BitRate = 1
	Kbps              = 1000 * BitPerSec
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// Kbps returns the rate in kilobits per second.
func (r BitRate) Kbps() float64 { return float64(r) / float64(Kbps) }

// Mbps returns the rate in megabits per second.
func (r BitRate) Mbps() float64 { return float64(r) / float64(Mbps) }

// String formats the rate with an appropriate SI prefix.
func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2fGb/s", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.2fMb/s", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.2fKb/s", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%.0fb/s", float64(r))
	}
}

// TimeToSend returns the serialization time for n bytes at rate r,
// truncated to a whole nanosecond: the exact time lies in [d, d+1ns],
// so RateOf(n, d) can read slightly above r for a short transfer. A
// zero or negative rate is treated as infinitely fast.
func (r BitRate) TimeToSend(n ByteSize) time.Duration {
	if r <= 0 {
		return 0
	}
	bits := float64(n) * 8
	sec := bits / float64(r)
	return time.Duration(sec * float64(time.Second))
}

// BytesIn returns how many whole bytes rate r delivers in d.
func (r BitRate) BytesIn(d time.Duration) ByteSize {
	if r <= 0 || d <= 0 {
		return 0
	}
	bits := float64(r) * d.Seconds()
	return ByteSize(bits / 8)
}

// ByteSize is a data size in bytes.
type ByteSize int64

// Size constants. The paper uses decimal sizes (KB = 1000 bytes) for
// frame sizes and kilobits (Kb = 125 bytes) for message sizes.
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	GB            = 1000 * MB

	// Kbit is the size of one kilobit of payload expressed in bytes.
	Kbit = 125 * Byte
)

// Bits returns the size in bits.
func (s ByteSize) Bits() int64 { return int64(s) * 8 }

// String formats the size with an appropriate SI prefix.
func (s ByteSize) String() string {
	switch {
	case s >= GB:
		return fmt.Sprintf("%.2fGB", float64(s)/float64(GB))
	case s >= MB:
		return fmt.Sprintf("%.2fMB", float64(s)/float64(MB))
	case s >= KB:
		return fmt.Sprintf("%.2fKB", float64(s)/float64(KB))
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// RateOf returns the average bit rate achieved by transferring n bytes
// in d. A non-positive duration yields zero.
func RateOf(n ByteSize, d time.Duration) BitRate {
	if d <= 0 {
		return 0
	}
	return BitRate(float64(n.Bits()) / d.Seconds())
}
