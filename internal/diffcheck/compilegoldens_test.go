package diffcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"elag/internal/workload"

	elag "elag"
)

// compileGoldensPath freezes the compiler's output: one sha256 per
// (program, level) over the assembly listing, the encoded machine program
// and the load classification. A compiler change that claims to be
// output-neutral (a faster analysis, a rewritten verifier) must leave every
// digest unchanged; regenerate only on a commit that deliberately changes
// code generation, with ELAG_UPDATE_GOLDENS=1.
const compileGoldensPath = "testdata/compile_goldens.json"

const compileGoldensSchema = "elag-compile-goldens/v1"

// compileGoldenSeeds is the number of GenMC programs (seeds 1..N) frozen
// beside the embedded workloads.
const compileGoldenSeeds = 200

type compileGoldensDoc struct {
	Schema  string
	Entries map[string]string
}

var compileGoldenLevels = []struct {
	Name string
	Opts elag.BuildOptions
}{
	{"default", elag.BuildOptions{}},
	{"O0", elag.BuildOptions{Level: elag.O0}},
	{"O1", elag.BuildOptions{Level: elag.O1}},
	{"O2", elag.BuildOptions{Level: elag.O2}},
}

// compileDigest hashes everything a build hands downstream: the listing,
// the object bytes (instructions, data, symbols, flavours) and the class
// and deciding heuristic of every classified load, in PC order.
func compileDigest(p *elag.Program) (string, error) {
	obj, err := p.Object()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "asm %d\n%s\nobj %d\n", len(p.Asm), p.Asm, len(obj))
	h.Write(obj)
	if c := p.Classes; c != nil {
		pcs := make([]int, 0, len(c.ByPC))
		for pc := range c.ByPC {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		fmt.Fprintf(h, "\nclasses nt=%d pd=%d ec=%d\n", c.StaticNT, c.StaticPD, c.StaticEC)
		for _, pc := range pcs {
			fmt.Fprintf(h, "%d %s %q\n", pc, c.ByPC[pc], c.Reason(pc))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func compileGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	type prog struct{ name, src string }
	var progs []prog
	for _, w := range workload.All() {
		progs = append(progs, prog{w.Name, w.Source})
	}
	for seed := int64(1); seed <= compileGoldenSeeds; seed++ {
		progs = append(progs, prog{fmt.Sprintf("genmc/%d", seed), GenMC(seed)})
	}
	out := make(map[string]string, len(progs)*len(compileGoldenLevels))
	for _, pr := range progs {
		for _, lv := range compileGoldenLevels {
			p, err := elag.Build(pr.src, lv.Opts)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", pr.name, lv.Name, err)
			}
			d, err := compileDigest(p)
			if err != nil {
				t.Fatalf("%s/%s: object: %v", pr.name, lv.Name, err)
			}
			out[pr.name+"/"+lv.Name] = d
		}
	}
	return out
}

// TestCompileGoldens rebuilds every workload and GenMC seed at every
// optimization level and compares each output digest with the frozen one.
func TestCompileGoldens(t *testing.T) {
	fresh := compileGoldenDigests(t)
	if os.Getenv("ELAG_UPDATE_GOLDENS") != "" {
		buf, err := json.MarshalIndent(&compileGoldensDoc{Schema: compileGoldensSchema, Entries: fresh}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(compileGoldensPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d entries", compileGoldensPath, len(fresh))
		return
	}
	raw, err := os.ReadFile(compileGoldensPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with ELAG_UPDATE_GOLDENS=1): %v", err)
	}
	var d compileGoldensDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	if d.Schema != compileGoldensSchema {
		t.Fatalf("golden schema %q, want %q", d.Schema, compileGoldensSchema)
	}
	if len(fresh) != len(d.Entries) {
		t.Errorf("goldens hold %d entries, fresh run produced %d", len(d.Entries), len(fresh))
	}
	keys := make([]string, 0, len(d.Entries))
	for k := range d.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		got, ok := fresh[key]
		switch {
		case !ok:
			t.Errorf("%s: golden entry has no fresh counterpart (program or level removed?)", key)
		case got != d.Entries[key]:
			t.Errorf("%s: compiler output diverged from golden (%s, want %s)", key, got, d.Entries[key])
		}
	}
	for key := range fresh {
		if _, ok := d.Entries[key]; !ok {
			t.Errorf("%s: fresh entry missing from goldens (regenerate with ELAG_UPDATE_GOLDENS=1)", key)
		}
	}
}
