package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stackSample is one profile sample: its stack root first, with inlined
// frames expanded, and one value per sample type.
type stackSample struct {
	stack  []string
	values []int64
}

// pprofData is the part of a pprof profile.proto the fold needs.
type pprofData struct {
	types   []string // sample type names, e.g. "cpu", "alloc_space"
	samples []stackSample
}

// decodePprof reads a pprof profile.proto, gzipped or raw. Unlike
// internal/profile.ParseData, which names each location by its innermost
// function only, it keeps every inlined frame of a location: when the
// compiler inlines a standard-library call into a repository function,
// the repository frame survives only as an inlined line, and dropping it
// would charge the sample to a caller's layer.
func decodePprof(data []byte) (*pprofData, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	var strs []string
	var types []uint64 // type string index per sample type
	var rawSamples, rawLocs [][]byte
	funcs := map[uint64]uint64{} // function id -> name string index
	err := pbFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t uint64
			if err := pbFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					t = v
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2:
			rawSamples = append(rawSamples, b)
		case 4:
			rawLocs = append(rawLocs, b)
		case 5: // function: id, name
			var id, name uint64
			if err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}

	p := &pprofData{}
	for _, t := range types {
		s, err := str(t)
		if err != nil {
			return nil, err
		}
		p.types = append(p.types, s)
	}

	// Location id -> its frames, innermost first (the wire order of lines).
	locs := map[uint64][]string{}
	for _, lb := range rawLocs {
		var id uint64
		var frames []string
		err := pbFields(lb, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				id = v
			case 4: // line: function_id
				return pbFields(b, func(n int, v uint64, _ []byte) error {
					if n != 1 {
						return nil
					}
					ni, ok := funcs[v]
					if !ok {
						return fmt.Errorf("pprof: unknown function %d", v)
					}
					s, err := str(ni)
					frames = append(frames, s)
					return err
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		locs[id] = frames
	}

	for _, sb := range rawSamples {
		var ids []uint64
		var vals []int64
		err := pbFields(sb, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				if b == nil {
					ids = append(ids, v)
					return nil
				}
				return pbPacked(b, func(u uint64) { ids = append(ids, u) })
			case 2:
				if b == nil {
					vals = append(vals, int64(v))
					return nil
				}
				return pbPacked(b, func(u uint64) { vals = append(vals, int64(u)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(vals) != len(p.types) {
			return nil, fmt.Errorf("pprof: sample has %d values, want %d", len(vals), len(p.types))
		}
		// Wire order is leaf first; flatten, then reverse to root first.
		var stack []string
		for _, id := range ids {
			f, ok := locs[id]
			if !ok {
				return nil, fmt.Errorf("pprof: unknown location %d", id)
			}
			stack = append(stack, f...)
		}
		for i, j := 0, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
		p.samples = append(p.samples, stackSample{stack, vals})
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// pbFields calls fn for each field of a protobuf message: v holds a varint
// field's value, b a length-delimited field's payload (nil otherwise).
func pbFields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbPacked calls fn for each varint in a packed repeated field.
func pbPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
