package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"paraverser/internal/experiments"
)

// tableDigests holds the SHA-256 of each "all" experiment's report at
// the quick scale, seed 1. A change that moves a table on purpose
// updates its digest here, from the lines the test prints.
var tableDigests = map[string]string{
	"table1":      "af5896cd7fe7ae7168953c6573bca41fb3f009b127e93e3dad17b6043f6f790f",
	"area":        "3982325fe23333666ba28ec7978fc910d1032ed8b91ec922abf07b197d5a7b2a",
	"fig6":        "a8fc629ef00ecf486fbb7ba8626632ea3ce9fd72445a70aa92e71322951fc3bd",
	"fig7":        "dcfdef679f3deebbf9045aaaf2a25243b283fced009bd07df41019de5f6d0c88",
	"fig8":        "5bac435d39b1caad7f70b11298250dfd74d61a86bf2eb48c1c19e4ee415c6faa",
	"fig9":        "b8eeede2fb6346abf97b1a3fffaf3be3c4ec96a3f9fe9fdb6432123ec9d503c5",
	"fig10":       "fc30bd64cc1d29ec603cc57aff912f4c67311b1c79e2ca090e00209382ae405e",
	"fig11":       "e2bd6343755713906130c895803f45f8fd08ec9d0f634d0e7a4d5098889919ea",
	"power":       "bf17362e15660f64a6078a70feace822e0a553469c29e0c3a987389cc6276634",
	"opportunity": "2483bff43e82ed745e8e128fcd7cd4295fe2fe89bc8da4a0b192ae9b8dd94344",
	"ablation":    "149383ec333311676b6a58e561b2cb3e7d62659ba4b77d6977f91de985ea482d",
	"campaign":    "4008ee786607578e949a51d5cc8b698aa3e03b6504c647692439b96e3ce16fb2",
	"divergent":   "0ade00a987b24d37df2c73cdf0168846b02421bbf7db5a6d7bd26ff2ef42935b",
	"strategies":  "58e70778666d852e3aa1afb2f80c0009fe9e031b6e658207ef7bc1e05520b88a",
}

// TestTableDigests is the tables' byte-identity oracle: every
// experiment of "all", run in sequence on a fresh engine at the quick
// scale, must render exactly the report it rendered when its digest
// was recorded. On a mismatch it names every experiment that moved,
// with its new digest.
func TestTableDigests(t *testing.T) {
	experiments.SetWorkers(0)
	var moved []string
	for _, name := range allExperiments {
		text, err := runExperiment(name, experiments.Quick(), campaignOpts{seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != tableDigests[name] {
			moved = append(moved, fmt.Sprintf("\t%q: %q,", name, got))
		}
	}
	if len(moved) > 0 {
		t.Errorf("%d of %d tables moved; their new digests:\n%s",
			len(moved), len(allExperiments), strings.Join(moved, "\n"))
	}
}
