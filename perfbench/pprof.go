package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuShares reads a gzipped pprof CPU profile and returns each module's
// share of CPU self time (see chargeOf), plus the five leaf functions with
// the most time left outside the named modules. Only the standard library
// is available, so this decodes the few profile.proto fields it needs:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func cpuShares(gz []byte) (map[string]float64, []string, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64 // leaf first
		value int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location → functions, innermost first
		fnName  = map[uint64]int64{}    // function → string index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			var locs, vals []uint64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) == 0 {
				return nil
			}
			s.locs, s.value = locs, int64(vals[len(vals)-1])
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return protoFields(b, func(f int, v uint64, _ []byte) error {
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
			locFns[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	out := map[string]float64{}
	others := map[string]float64{}
	var total float64
	name := func(fn uint64) string {
		if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				stack = append(stack, name(fn))
			}
		}
		if len(stack) == 0 {
			continue
		}
		m := chargeOf(stack)
		out[m] += float64(s.value)
		if m == "other" {
			others[stack[0]] += float64(s.value)
		}
		total += float64(s.value)
	}
	if total == 0 {
		return nil, nil, errors.New("profile: no samples")
	}
	for k := range out {
		out[k] /= total
	}
	top := make([]string, 0, len(others))
	for n := range others {
		top = append(top, n)
	}
	sort.Slice(top, func(i, j int) bool { return others[top[i]] > others[top[j]] })
	for i := range top[:min(5, len(top))] {
		top[i] = fmt.Sprintf("%s %.1f%%", top[i], 100*others[top[i]]/total)
	}
	return out, top[:min(5, len(top))], nil
}

// chargeOf is the module one sample's self time counts for, given its
// stack leaf first (inlined frames included). The innermost frame of a
// named module takes it, so a standard-library function such as math.Exp,
// or a runtime map, hash or copy helper, counts for the module that
// called it. A runtime frame takes it only when no frame below it belongs
// to another package: the scheduler, allocator and collector are
// runtime's, but the runtime frames at a goroutine's root
// (runtime.goexit, runtime.main) are not callers, so self time with no
// named module on its stack stays "other".
func chargeOf(stack []string) string {
	onlyRuntime := true // every frame so far is runtime's or a helper
	for _, fn := range stack {
		switch m := moduleOf(fn); m {
		case "helper":
		case "runtime":
			if onlyRuntime {
				return "runtime"
			}
		case "other":
			onlyRuntime = false
		default:
			return m
		}
	}
	if onlyRuntime {
		return "runtime"
	}
	return "other"
}

// moduleOf maps a function name to the module it belongs to, using this
// repository's package names (core and ratectl are both "ctl": the
// controller step). Transport is the kernel boundary (net, os, syscall,
// internal/poll); perfbench is the benchmark's own client work; "helper"
// marks runtime functions charged to their caller; any other package is
// "other".
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "softrate/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		switch pkg {
		case "core", "ratectl", "ctl":
			return "ctl"
		case "server", "linkstore", "coldstore", "coding", "phy", "channel", "trace", "netsim":
			return pkg
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "softrate/perfbench."), strings.HasPrefix(fn, "main."):
		return "perfbench"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "net."),
		strings.HasPrefix(fn, "internal/syscall/"), strings.HasPrefix(fn, "internal/runtime/syscall."), strings.HasPrefix(fn, "os."):
		return "transport"
	case strings.HasPrefix(fn, "internal/runtime/maps."), strings.HasPrefix(fn, "runtime.map"),
		strings.HasPrefix(fn, "runtime.memhash"), strings.HasPrefix(fn, "runtime.memmove"),
		strings.HasPrefix(fn, "runtime.memclr"), strings.HasPrefix(fn, "runtime.memequal"):
		// Map, hash and copy helpers do the caller's work: a Go map
		// lookup in the link index is linkstore time.
		return "helper"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "internal/runtime/"), strings.HasPrefix(fn, "gcWriteBarrier"):
		return "runtime"
	}
	return "other"
}

// protoFields walks one protobuf message, calling fn for each field with
// its number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, packed or not.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
