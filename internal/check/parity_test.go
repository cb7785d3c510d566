package check

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSnapshotFieldParity is the reflection-based backstop behind the
// snapstate analyzer: for every runtime, capture a mid-run snapshot — the
// core machine's envelope (memory, engine, bus counters, caches, BDM
// tables) with the runtime's policy state inside it — keep executing so
// the system state diverges, restore, and re-capture. The two captures are
// compared field by field with reflect — through every nested struct,
// slice, pointer, interface, and map — so a field that Snapshot or Restore
// silently drops shows up as a named path (e.g.
// ".policy.procs[1].sections[0].FootprintState.buf"), not just a
// fingerprint mismatch. The walk reads unexported fields, which is exactly
// the point: the snapshot structs are the closed set of captured state,
// and no field may escape the round trip. A capture must also be a deep
// copy: after the capture and again after the restore, no slice the
// capture holds may share its backing array with the live system.
func TestSnapshotFieldParity(t *testing.T) {
	for i, name := range []string{"tm", "tls", "ckpt"} {
		tgt := SweepTargets()[i]
		t.Run(name, func(t *testing.T) {
			// Snapshots are captured fresh (nil dst) so buffer reuse cannot
			// mask a dropped copy.
			sched := NewReplay(nil, 0)
			sched.Reset(nil, 12)
			sys, err := tgt.build(sched, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Advance past the first few quanta so the mid-run capture holds
			// live speculative state, not the base image.
			paused := 0
			done, err := sys.RunUntil(func() bool { paused++; return paused > 3 })
			if err != nil {
				t.Fatal(err)
			}
			if done {
				t.Fatal("sweep workload finished before the mid-run capture; deepen it")
			}
			mid := sys.Snapshot(nil)
			if path := sharedSlice(reflect.ValueOf(sys), reflect.ValueOf(mid)); path != "" {
				t.Errorf("capture shares storage with the live system at %s", path)
			}
			// Mutate: run to completion, so every live field moves on.
			if _, err := sys.RunUntil(nil); err != nil {
				t.Fatal(err)
			}
			end := sys.Snapshot(nil)
			if diff := deepDiff("", reflect.ValueOf(mid).Elem(), reflect.ValueOf(end).Elem()); diff == "" {
				t.Fatal("completion snapshot is bit-identical to the mid-run capture; the parity check has no teeth")
			}
			// Restore and re-capture: every field must round-trip exactly.
			sys.Restore(mid)
			if path := sharedSlice(reflect.ValueOf(sys), reflect.ValueOf(mid)); path != "" {
				t.Errorf("restore left the live system sharing storage with the capture at %s", path)
			}
			again := sys.Snapshot(nil)
			if diff := deepDiff("", reflect.ValueOf(mid).Elem(), reflect.ValueOf(again).Elem()); diff != "" {
				t.Errorf("snapshot round trip dropped state at %s", diff)
			}
		})
	}
}

// sharedSlice returns the path of the first slice reachable from snap whose
// backing array is also reachable from live, or "" when there is none.
// Pointers the two share are not followed: they name immutable objects
// such as a signature's configuration.
func sharedSlice(live, snap reflect.Value) string {
	owned := map[uintptr]bool{}
	walkRefs(live, map[ref]bool{}, func(p uintptr) bool {
		owned[p] = true
		return false
	})
	path, _ := walkRefs(snap, map[ref]bool{}, func(p uintptr) bool { return owned[p] })
	return path
}

// ref identifies one pointer target or slice for walkRefs' cycle check.
type ref struct {
	p uintptr
	t reflect.Type
	n int
}

// walkRefs walks v depth first and calls visit with the address of every
// pointer target and non-empty slice backing array it meets. When visit
// returns true for a slice, walkRefs stops and returns the slice's path;
// for a pointer, it does not follow it. Zero-size elements are skipped: Go
// may place every zero-size allocation at one address.
func walkRefs(v reflect.Value, seen map[ref]bool, visit func(p uintptr) bool) (string, bool) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			return walkRefs(v.Elem(), seen, visit)
		}
	case reflect.Pointer:
		r := ref{v.Pointer(), v.Type(), 0}
		if v.IsNil() || v.Type().Elem().Size() == 0 || seen[r] || visit(r.p) {
			return "", false
		}
		seen[r] = true
		return walkRefs(v.Elem(), seen, visit)
	case reflect.Slice:
		r := ref{v.Pointer(), v.Type(), v.Len()}
		if v.Cap() == 0 || v.Type().Elem().Size() == 0 || seen[r] {
			return "", false
		}
		if visit(r.p) {
			return "", true
		}
		seen[r] = true
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if path, ok := walkRefs(v.Index(i), seen, visit); ok {
				return fmt.Sprintf("[%d]%s", i, path), true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if path, ok := walkRefs(v.Field(i), seen, visit); ok {
				return "." + v.Type().Field(i).Name + path, true
			}
		}
	}
	return "", false
}

// deepDiff walks two values of the same type and returns the dotted path of
// the first difference, or "" when they are bit-equal. It descends through
// unexported fields — reflect permits reading (not interfacing) them — so
// the whole captured state is in scope.
func deepDiff(path string, a, b reflect.Value) string {
	if a.Type() != b.Type() {
		return path + ": type mismatch"
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
		if a.IsNil() {
			return ""
		}
		return deepDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		st := a.Type()
		for i := 0; i < a.NumField(); i++ {
			if d := deepDiff(path+"."+st.Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := deepDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() { //bulklint:ordered any difference fails the test; order only picks which one is named
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing key", path, k)
			}
			if d := deepDiff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv); d != "" {
				return d
			}
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Func, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			return path + ": nil-ness differs"
		}
	default:
		return path + ": unsupported kind " + a.Kind().String()
	}
	return ""
}
