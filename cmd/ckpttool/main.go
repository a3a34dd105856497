// Command ckpttool inspects NOCCKPT01 containers: run-cache entries (.rc,
// which also carry CMP warm checkpoints), DSE frontier files (cmd/dse
// -frontier) and flit traces (tracetool nocrec).
//
// Usage:
//
//	ckpttool info file...       print each checkpoint's kind, version and size
//	ckpttool validate file...   verify magic, CRC and header; exit 1 on any failure
//	ckpttool diff a b           compare two checkpoints' kind, version and size
//
// Every command checks the whole container's integrity without
// interpreting the body, so it works even when the body is from a newer
// (unknown) state version.
package main

import (
	"bytes"
	"fmt"
	"os"

	"heteronoc/internal/ckpt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "info":
		if len(args) == 0 {
			usage()
		}
		exit(info(args))
	case "validate":
		if len(args) == 0 {
			usage()
		}
		exit(validate(args))
	case "diff":
		if len(args) != 2 {
			usage()
		}
		exit(diff(args[0], args[1]))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ckpttool info|validate file... | ckpttool diff a b")
	os.Exit(2)
}

func exit(ok bool) {
	if !ok {
		os.Exit(1)
	}
}

func info(paths []string) bool {
	ok := true
	for _, p := range paths {
		h, size, err := validateFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p, err)
			ok = false
			continue
		}
		fmt.Printf("%s:\n", p)
		fmt.Printf("  kind  %s (v%d)\n", h.Kind, h.Version)
		fmt.Printf("  size  %d bytes\n", size)
	}
	return ok
}

func validate(paths []string) bool {
	ok := true
	for _, p := range paths {
		h, size, err := validateFile(p)
		if err != nil {
			fmt.Printf("%s: INVALID: %v\n", p, err)
			ok = false
			continue
		}
		fmt.Printf("%s: ok (%s v%d, %d bytes)\n", p, h.Kind, h.Version, size)
	}
	return ok
}

// validateFile reads one container and verifies its integrity: magic,
// header layout and the CRC over the whole file. Any damage — truncation,
// a flipped bit anywhere from header to footer — surfaces as an error
// wrapping ckpt.ErrCorrupt, which the CLI turns into a nonzero exit.
func validateFile(path string) (h ckpt.Header, size int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return h, 0, err
	}
	h, err = ckpt.ReadHeader(data)
	return h, len(data), err
}

func diff(pa, pb string) bool {
	da, err := os.ReadFile(pa)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	db, err := os.ReadFile(pb)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	if bytes.Equal(da, db) {
		fmt.Printf("identical (%d bytes)\n", len(da))
		return true
	}
	ha, erra := ckpt.ReadHeader(da)
	hb, errb := ckpt.ReadHeader(db)
	if erra != nil || errb != nil {
		fmt.Printf("differ; unreadable header (%v / %v)\n", erra, errb)
		return false
	}
	cmp := func(field string, a, b any) {
		if a != b {
			fmt.Printf("  %-8s %v != %v\n", field, a, b)
		}
	}
	fmt.Printf("differ (%d vs %d bytes):\n", len(da), len(db))
	cmp("kind", ha.Kind, hb.Kind)
	cmp("version", ha.Version, hb.Version)
	if ha == hb {
		fmt.Println("  headers identical; bodies differ")
	}
	return false
}
