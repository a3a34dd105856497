package dse

import (
	"errors"
	"fmt"
	"os"

	"heteronoc/internal/ckpt"
)

// The frontier file persists a search mid-flight so a killed search
// resumes exactly where it stopped and an extended search (more
// generations, wider budget) reuses every prior evaluation. It is a
// NOCCKPT01 container of kind "dse-frontier" (header fields zero) whose
// body holds, in order:
//
//	string  config hash           canonical search-config string (see
//	                              SearchConfig.configString); generations
//	                              and eval budget are deliberately excluded
//	uvarint generation            completed generations
//	uvarint evals                 cumulative archive misses (probe requests)
//	uvarint rng state             splitmix64 stream position
//	population                    count, then each member as a router set
//	archive                       count, then each evaluated candidate:
//	                              set + 4 float64 objectives + saturated
//	pareto                        count, then archive indices of the front
//
// Sets are stored as a count plus delta-encoded, strictly ascending
// indices. ckpt.WriteFile saves atomically, so a crash mid-save leaves the
// previous frontier intact.

const (
	// frontierKind labels a search frontier container.
	frontierKind = "dse-frontier"

	frontierVersion = 1

	// maxSetIndex bounds a decoded router index; it is far above any
	// searchable mesh and keeps a corrupt delta from overflowing.
	maxSetIndex = 1 << 16

	// maxCounter bounds the decoded generation and evaluation counters so
	// they convert to int without wrapping.
	maxCounter = 1 << 40
)

// ErrFrontierConfig reports a frontier whose config hash does not match
// the resuming search — resuming would silently mix incompatible
// objective spaces, so it is an error rather than a fresh start.
var ErrFrontierConfig = errors.New("dse: frontier config mismatch")

// searchState is everything the loop needs to continue a search.
type searchState struct {
	Generation int
	Evals      int
	RNGState   uint64
	Population [][]int
	Archive    []Candidate // evaluation order; Big sets are canonical
	Pareto     []int       // archive indices
}

func writeSet(w *ckpt.Writer, s []int) {
	w.U64(uint64(len(s)))
	prev := 0
	for _, v := range s { // sorted, so deltas are non-negative
		w.U64(uint64(v - prev))
		prev = v
	}
}

// readSet decodes a set written by writeSet, refusing indices that are
// not strictly ascending within [0, maxSetIndex).
func readSet(r *ckpt.Reader) ([]int, error) {
	s := make([]int, 0, r.Count())
	prev := 0
	for i := 0; i < cap(s); i++ {
		d := r.U64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if (i > 0 && d == 0) || d >= uint64(maxSetIndex-prev) {
			return nil, fmt.Errorf("%w: router set not strictly ascending below %d", ckpt.ErrCorrupt, maxSetIndex)
		}
		prev += int(d)
		s = append(s, prev)
	}
	return s, r.Err()
}

// encodeFrontier serializes a search state as a dse-frontier container.
func encodeFrontier(configHash string, st *searchState) []byte {
	w := ckpt.NewWriter(ckpt.Header{Kind: frontierKind, Version: frontierVersion})
	w.Str(configHash)
	w.U64(uint64(st.Generation))
	w.U64(uint64(st.Evals))
	w.U64(st.RNGState)
	w.U64(uint64(len(st.Population)))
	for _, p := range st.Population {
		writeSet(w, p)
	}
	w.U64(uint64(len(st.Archive)))
	for _, c := range st.Archive {
		writeSet(w, c.Big)
		w.F64(c.AvgLatency)
		w.F64(c.LatencyNS)
		w.F64(c.PowerW)
		w.F64(c.AreaMM2)
		w.Bool(c.Saturated)
	}
	w.U64(uint64(len(st.Pareto)))
	for _, i := range st.Pareto {
		w.U64(uint64(i))
	}
	return w.Finish()
}

// decodeFrontier parses a dse-frontier container, checking kind, version
// and the config hash (wantHash == "" skips the config check, for
// inspection). Structural damage wraps ckpt.ErrCorrupt.
func decodeFrontier(b []byte, wantHash string) (*searchState, error) {
	r, err := ckpt.NewReader(b)
	if err != nil {
		return nil, err
	}
	if h := r.Header(); h.Kind != frontierKind || h.Version != frontierVersion {
		return nil, fmt.Errorf("%w: %s v%d, want %s v%d", ckpt.ErrCorrupt, h.Kind, h.Version, frontierKind, frontierVersion)
	}
	hash := r.StrMax(4096)
	if r.Err() == nil && wantHash != "" && hash != wantHash {
		return nil, fmt.Errorf("%w: file has %q, search wants %q", ErrFrontierConfig, hash, wantHash)
	}
	gen, evals := r.U64(), r.U64()
	if gen > maxCounter || evals > maxCounter {
		return nil, fmt.Errorf("%w: generation %d / evals %d out of range", ckpt.ErrCorrupt, gen, evals)
	}
	st := &searchState{Generation: int(gen), Evals: int(evals), RNGState: r.U64()}
	st.Population = make([][]int, 0, r.Count())
	for i := 0; i < cap(st.Population); i++ {
		set, err := readSet(r)
		if err != nil {
			return nil, err
		}
		st.Population = append(st.Population, set)
	}
	st.Archive = make([]Candidate, 0, r.Count())
	for i := 0; i < cap(st.Archive); i++ {
		set, err := readSet(r)
		if err != nil {
			return nil, err
		}
		st.Archive = append(st.Archive, Candidate{
			Big:        set,
			AvgLatency: r.F64(),
			LatencyNS:  r.F64(),
			PowerW:     r.F64(),
			AreaMM2:    r.F64(),
			Saturated:  r.Bool(),
		})
	}
	st.Pareto = make([]int, 0, r.Count())
	for i := 0; i < cap(st.Pareto) && r.Err() == nil; i++ {
		idx := r.U64()
		if idx >= uint64(len(st.Archive)) {
			return nil, fmt.Errorf("%w: pareto index %d outside the %d-entry archive", ckpt.ErrCorrupt, idx, len(st.Archive))
		}
		st.Pareto = append(st.Pareto, int(idx))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// saveFrontier writes the state atomically.
func saveFrontier(path, configHash string, st *searchState) error {
	return ckpt.WriteFile(path, encodeFrontier(configHash, st))
}

// loadFrontier reads a frontier file. A missing file returns (nil, nil):
// the search starts fresh. A present-but-unreadable file is an error — a
// corrupt or mismatched frontier must not be silently discarded.
func loadFrontier(path, configHash string) (*searchState, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeFrontier(b, configHash)
}
