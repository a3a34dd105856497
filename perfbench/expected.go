package main

import (
	_ "embed"
	"encoding/json"
)

// expected.json pins, per workload, the fingerprint of every simulated
// output at defaultSeed: network Stats and reliability fingerprints,
// CMP report fingerprints, experiment report fingerprints from /run and the
// DSE front. Regenerate it with -print-fingerprints only when a change is
// meant to alter simulated behaviour.
//
//go:embed expected.json
var expectedJSON []byte

var expected = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic("perfbench: bad expected.json: " + err.Error())
	}
	return m
}()
