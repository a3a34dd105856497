// Command ckpttool inspects NOCCKPT01 containers: network checkpoints
// written by noxsim (-ckptout), suspended runs, run-cache entries (.rc),
// DSE frontier files (cmd/dse -frontier) and flit traces (tracetool
// nocrec).
//
// Usage:
//
//	ckpttool info file...       print each checkpoint's header
//	ckpttool validate file...   verify magic, CRC and header; exit 1 on any failure
//	ckpttool diff a b           compare two checkpoints field by field
//
// info reads only the header, so it works even when the body is from a
// newer (unknown) state version; validate checks the whole container's
// integrity without interpreting the body.
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
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			ok = false
			continue
		}
		h, err := ckpt.ReadHeader(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p, err)
			ok = false
			continue
		}
		fmt.Printf("%s:\n", p)
		printHeader(h, int64(len(data)))
	}
	return ok
}

func printHeader(h ckpt.Header, size int64) {
	fmt.Printf("  kind         %s (v%d)\n", h.Kind, h.Version)
	fmt.Printf("  size         %d bytes\n", size)
	fmt.Printf("  cycle        %d\n", h.Cycle)
	fmt.Printf("  flits        %d in network\n", h.Flits)
	fmt.Printf("  queued       %d packets\n", h.Queued)
	fmt.Printf("  next pkt id  %d\n", h.NextPktID)
	fmt.Printf("  fingerprint  %016x\n", h.Fingerprint)
}

func validate(paths []string) bool {
	ok := true
	for _, p := range paths {
		if err := validateFile(p); err != nil {
			fmt.Printf("%s: INVALID: %v\n", p, err)
			ok = false
			continue
		}
		data, _ := os.ReadFile(p)
		h, _ := ckpt.ReadHeader(data)
		fmt.Printf("%s: ok (%s v%d, cycle %d, fingerprint %016x)\n",
			p, h.Kind, h.Version, h.Cycle, h.Fingerprint)
	}
	return ok
}

// validateFile verifies one container's integrity: magic, header layout
// and the CRC over the whole file. Any damage — truncation, a flipped
// bit anywhere from header to footer — surfaces as an error wrapping
// ckpt.ErrCorrupt, which the CLI turns into a nonzero exit.
func validateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = ckpt.NewReader(data)
	return err
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
			fmt.Printf("  %-12s %v != %v\n", field, a, b)
		}
	}
	fmt.Printf("differ (%d vs %d bytes):\n", len(da), len(db))
	cmp("kind", ha.Kind, hb.Kind)
	cmp("version", ha.Version, hb.Version)
	cmp("cycle", ha.Cycle, hb.Cycle)
	cmp("flits", ha.Flits, hb.Flits)
	cmp("queued", ha.Queued, hb.Queued)
	cmp("next pkt id", ha.NextPktID, hb.NextPktID)
	cmp("fingerprint", fmt.Sprintf("%016x", ha.Fingerprint), fmt.Sprintf("%016x", hb.Fingerprint))
	if ha == hb {
		fmt.Println("  headers identical; bodies differ")
	}
	return false
}
