package coherence

import (
	"reflect"
	"testing"

	"heteronoc/internal/cmp/cache"
)

// pointerPath returns the path to the first pointer-carrying component of
// t ("" when t holds no pointers): the garbage collector has to scan every
// value of a type that has one.
func pointerPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if t.Len() == 0 {
			return ""
		}
		if p := pointerPath(t.Elem()); p != "" {
			return "[]" + p
		}
		return ""
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerPath(f.Type); p != "" {
				return "." + f.Name + p
			}
		}
		return ""
	}
	return " (" + t.String() + ")"
}

// TestCacheLineLayout pins the two properties the L2 line arrays rely on:
// a directory-carrying line fits in 40 bytes, and neither cache's line
// type holds a pointer, so the multi-megabyte line arrays are never
// scanned by the GC and a checkpoint restore allocates nothing per line.
func TestCacheLineLayout(t *testing.T) {
	l2 := reflect.TypeOf(cache.Line[DirEntry]{})
	if size := l2.Size(); size > 40 {
		t.Errorf("%v is %d bytes, want at most 40", l2, size)
	}
	if size := reflect.TypeOf(DirEntry{}).Size(); size > 16 {
		t.Errorf("DirEntry is %d bytes, want at most 16", size)
	}
	for _, typ := range []reflect.Type{l2, reflect.TypeOf(cache.Line[bool]{})} {
		if p := pointerPath(typ); p != "" {
			t.Errorf("%v holds a pointer at %s", typ, p)
		}
	}
}
