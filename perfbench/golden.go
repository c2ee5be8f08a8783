package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
)

// heldOutSeed is the second seed in the golden table: recorded once,
// never used while tuning the benchmark.
const heldOutSeed = 4242

// goldenEntry pins one (workload, seed): the SHA-256 over the pass's
// response bodies in request-index order, plus a short digest per
// request so a mismatch names the first request that diverged.
type goldenEntry struct {
	SHA256   string   `json:"sha256"`
	Requests []string `json:"requests"`
}

// anySeed keys paper-figures' single entry: its inputs do not depend on
// the seed, so one entry pins every seed.
const anySeed = "any"

// bodiesDigest is the SHA-256 over the concatenated per-body SHA-256s, in
// request-index order.
func bodiesDigest(digests [][32]byte) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func shortDigest(d [32]byte) string { return hex.EncodeToString(d[:6]) }

func (b *bench) goldenKey() string {
	if b.o.workload == "paper-figures" {
		return anySeed
	}
	return strconv.FormatUint(b.o.seed, 10)
}

// checkGolden compares the first pass's bodies with the golden table (or
// records them with --record-golden) and reports what it did.
func (b *bench) checkGolden(digest string) string {
	path := filepath.Join(b.o.golden, b.o.workload+".json")
	table := map[string]goldenEntry{}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		b.probs.add("reading golden table: %v", err)
		return "error"
	default:
		if err := json.Unmarshal(data, &table); err != nil {
			b.probs.add("golden table %s: %v", path, err)
			return "error"
		}
	}
	key := b.goldenKey()
	if b.o.record {
		e := goldenEntry{SHA256: digest, Requests: make([]string, len(b.ref.digest))}
		for i, d := range b.ref.digest {
			e.Requests[i] = shortDigest(d)
		}
		table[key] = e
		out, err := json.MarshalIndent(table, "", " ")
		if err == nil {
			err = os.WriteFile(path, append(out, '\n'), 0o644)
		}
		if err != nil {
			b.probs.add("recording golden table: %v", err)
			return "error"
		}
		return "recorded"
	}
	want, ok := table[key]
	if !ok {
		return "seed not in table"
	}
	if want.SHA256 == digest {
		return "match"
	}
	for i, d := range b.ref.digest {
		if i >= len(want.Requests) || shortDigest(d) != want.Requests[i] {
			b.probs.add("golden table: request %d (%s %s) is the first whose body differs", i, b.in.Pass[i].Method, b.in.Pass[i].Path)
			return "mismatch"
		}
	}
	b.probs.add("golden table: bodies digest %s, want %s", digest, want.SHA256)
	return "mismatch"
}
