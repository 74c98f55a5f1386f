package layers

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the subset of the pprof profile.proto format the fold
// needs — sample types, samples, locations with their inlined lines, and
// function names — without the google/pprof module, which the repository
// does not vendor.

// Sample is one profile sample: its call stack, leaf first, as function
// names (inlined frames expanded, innermost first), and its values in
// sample-type order.
type Sample struct {
	Stack  []string
	Values []int64
}

// Profile is a decoded CPU (or any sampled) profile.
type Profile struct {
	// Types are the sample value types as "type/unit", e.g.
	// "samples/count" and "cpu/nanoseconds".
	Types   []string
	Samples []Sample
}

// ValueIndex returns the index of the first sample value whose unit is unit,
// or -1.
func (p *Profile) ValueIndex(unit string) int {
	for i, t := range p.Types {
		if len(t) > len(unit) && t[len(t)-len(unit)-1:] == "/"+unit {
			return i
		}
	}
	return -1
}

// Merge appends o's samples to p; both must carry the same sample types.
func (p *Profile) Merge(o *Profile) error {
	if len(p.Types) == 0 && len(p.Samples) == 0 {
		p.Types = append([]string(nil), o.Types...)
	}
	if fmt.Sprint(p.Types) != fmt.Sprint(o.Types) {
		return fmt.Errorf("layers: merging %v samples into a %v profile", o.Types, p.Types)
	}
	p.Samples = append(p.Samples, o.Samples...)
	return nil
}

var errMalformed = errors.New("layers: malformed profile")

// Parse decodes a gzipped or raw profile.proto message.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("layers: gunzip profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("layers: gunzip profile: %w", err)
		}
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs      []string
		typePairs [][2]int64
		raws      []rawSample
		locLines  = map[uint64][]uint64{}
		fnName    = map[uint64]int64{}
	)
	err := fields(data, func(f int, wt int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var t, u int64
			if err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					t = int64(v)
				} else if f == 2 {
					u = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typePairs = append(typePairs, [2]int64{t, u})
		case 2: // sample
			var s rawSample
			if err := fields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, wt, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wt, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			raws = append(raws, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					id = v
				} else if f == 2 {
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &Profile{}
	for _, tp := range typePairs {
		p.Types = append(p.Types, str(tp[0])+"/"+str(tp[1]))
	}
	for _, r := range raws {
		s := Sample{Values: r.vals}
		for _, loc := range r.locs {
			for _, fn := range locLines[loc] {
				s.Stack = append(s.Stack, str(fnName[fn]))
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// appendUints appends one varint field value, or a packed run of them.
func appendUints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// fields walks one protobuf message, calling fn for every field with its
// number, wire type, and either its varint value or its length-delimited
// bytes. Fixed-width fields are skipped.
func fields(b []byte, fn func(field, wireType int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errMalformed
			}
			b = b[n:]
			if err := fn(field, wt, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errMalformed
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wt, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			b = b[4:]
		default:
			return errMalformed
		}
	}
	return nil
}
