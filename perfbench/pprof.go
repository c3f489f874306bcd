package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the subset of the pprof profile.proto format that
// folding a profile by module needs: sample types, samples (location ids
// and values), locations (their function lines, innermost first) and
// function names. The standard library writes profiles in this format but
// ships no reader for it.

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes []string
	samples     []profSample
	// locFuncs maps a location id to its function names, innermost
	// (inlined) first.
	locFuncs map[uint64][]string
}

// valueIndex returns the index of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (types %v)", name, p.sampleTypes)
}

// stack returns a sample's function names, leaf first.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, id := range s.locs {
		out = append(out, p.locFuncs[id]...)
	}
	return out
}

func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeIdx   []int64 // string index of each sample type's name
		locLines  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
		p         = &profile{locFuncs: map[uint64][]string{}}
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var t int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case 2: // sample: Sample{location_id=1, value=2}
			var s profSample
			err := eachField(b, func(f, w int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendPacked(w, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(w, v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: Location{id=1, line=4 Line{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function: Function{id=1, name=2}
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

// appendPacked feeds a repeated scalar field, packed or not, to add.
func appendPacked(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		add(x)
		b = b[n:]
	}
	return nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message: varints arrive as
// v, length-delimited fields as b.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return errBadProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
