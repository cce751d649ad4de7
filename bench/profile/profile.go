// Package profile decodes the CPU profiles runtime/pprof writes and
// attributes their samples to the simulator's layers. It uses only
// the standard library: a profile is a gzip-compressed protocol
// buffer (github.com/google/pprof/proto/profile.proto), and the few
// messages read here are decoded by hand.
package profile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame is one function on a sampled stack.
type Frame struct {
	// Func is the fully qualified function name, as in
	// "mpichgq/internal/sim.(*Kernel).run".
	Func string
	// File is the source file the function is in.
	File string
}

// Sample is one sampled stack, innermost frame first, with how many
// times the profiler saw it and the CPU time that stands for.
type Sample struct {
	Stack []Frame
	Count int64
	CPUNs int64
}

// Parse decodes a gzip-compressed CPU profile into its samples.
// Inlined calls appear as frames of their own, so a stack lists every
// function a sample was in.
func Parse(data []byte) ([]Sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var p rawProfile
	if err := p.decode(raw); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p.samples()
}

// rawProfile holds the profile.proto fields Parse needs.
type rawProfile struct {
	strings     []string
	sampleTypes []int64 // string index of each value's type
	rawSamples  []rawSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64][2]int64 // function id -> string index of name, filename
}

type rawSample struct {
	locations []uint64
	values    []int64
}

// Field numbers in profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID       = 1
	funcName     = 2
	funcFilename = 4
)

func (p *rawProfile) decode(b []byte) error {
	p.locations = make(map[uint64][]uint64)
	p.functions = make(map[uint64][2]int64)
	return eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case profSampleType:
			var typ int64
			err := eachField(sub, func(num, _ int, v uint64, _ []byte) error {
				if num == valueTypeType {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s rawSample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locations, wire, v, sub)
				case sampleValue:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, sub); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.rawSamples = append(p.rawSamples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(num, _ int, v uint64, sub []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(sub, func(num, _ int, v uint64, _ []byte) error {
						if num == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name, file int64
			err := eachField(sub, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				case funcFilename:
					file = int64(v)
				}
				return nil
			})
			p.functions[id] = [2]int64{name, file}
			return err
		case profStringTable:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// samples resolves location and function ids into stacks and picks
// the CPU-time value.
func (p *rawProfile) samples() ([]Sample, error) {
	count, cpu := -1, -1
	for i, t := range p.sampleTypes {
		switch p.str(t) {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return nil, errors.New("profile: not a CPU profile")
	}
	out := make([]Sample, 0, len(p.rawSamples))
	for _, s := range p.rawSamples {
		if len(s.values) != len(p.sampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values, want %d", len(s.values), len(p.sampleTypes))
		}
		var stack []Frame
		for _, loc := range s.locations {
			for _, fid := range p.locations[loc] {
				f := p.functions[fid]
				stack = append(stack, Frame{Func: p.str(f[0]), File: p.str(f[1])})
			}
		}
		out = append(out, Sample{Stack: stack, Count: s.values[count], CPUNs: s.values[cpu]})
	}
	return out, nil
}

// Protocol buffer wire types.
const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// eachField calls f for every field of the message in b: v holds a
// varint or fixed value, sub the payload of a length-delimited field.
func eachField(b []byte, f func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case wireFixed64:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case wireFixed32:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}
