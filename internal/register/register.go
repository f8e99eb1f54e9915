// Package register implements read/write shared objects on top of a
// probabilistic biquorum system, following the paper's Section 10 (and
// Attiya–Bar-Noy–Dolev style quorum registers): a write first reads the
// current version via a lookup quorum, then writes the value with a higher
// version to an advertise quorum; a read returns the value found via a
// lookup quorum and can optionally write it back. With probabilistic
// quorums the resulting consistency is "probabilistic linearizability"
// (Gramoli): each operation behaves atomically with probability ≥ 1−ε.
//
// Version ordering at the replicas uses the quorum system's Merge hook
// (Section 6.1's "a new value cannot be overwritten by an older one"):
// install it with
//
//	cfg.Merge = register.Merge
//
// before building the quorum system.
package register

import (
	"fmt"
	"strconv"
	"strings"

	"probquorum/internal/quorum"
)

// Versioned is a register value with its version stamp. Writer ids break
// version ties deterministically, so concurrent writers converge.
type Versioned struct {
	// Version is the logical timestamp.
	Version uint64
	// Writer is the writing node's id (tie-break).
	Writer int
	// Data is the payload.
	Data string
}

// Less orders stamps: lower version first; ties by writer id.
func (v Versioned) Less(o Versioned) bool {
	if v.Version != o.Version {
		return v.Version < o.Version
	}
	return v.Writer < o.Writer
}

// Encode serializes a versioned value for storage in the quorum system.
func Encode(v Versioned) string {
	return fmt.Sprintf("%d|%d|%s", v.Version, v.Writer, v.Data)
}

// Decode parses an encoded value. Unversioned (foreign) values decode as
// version 0.
func Decode(s string) Versioned {
	parts := strings.SplitN(s, "|", 3)
	if len(parts) != 3 {
		return Versioned{Data: s}
	}
	ver, err1 := strconv.ParseUint(parts[0], 10, 64)
	wr, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return Versioned{Data: s}
	}
	return Versioned{Version: ver, Writer: wr, Data: parts[2]}
}

// Merge is the quorum.Config.Merge resolver for registers: the entry with
// the higher (version, writer) stamp wins. Entries with identical stamps
// (possible only for buggy writers that reuse stamps) fall back to a
// lexicographic tie-break so all replicas still converge.
func Merge(_ string, old, new string) string {
	ov, nv := Decode(old), Decode(new)
	switch {
	case nv.Less(ov):
		return old
	case ov.Less(nv):
		return new
	case new > old:
		return new
	default:
		return old
	}
}

// Config tunes a register.
type Config struct {
	// WriteBack re-advertises the value a read returns, refreshing the
	// quorum (the read-repair of Section 6.1; improves recency under
	// churn at the cost of an advertise per read).
	WriteBack bool
}

// windowSecs is how long an operation's read phase collects replies from
// the lookup quorum before picking the highest version. Versioned objects
// read their full quorum — single-reply lookups would return an arbitrary
// previously-written value (Section 2.5's relaxed semantics) instead of the
// most recent one.
const windowSecs = 3

// Register is one named shared object over a quorum system. All nodes of
// the system can read and write it.
type Register struct {
	sys *quorum.System
	key string
	cfg Config
}

// New binds a register named key to the quorum system. The system should
// have been built with Merge installed; without it concurrent writes may
// regress at individual replicas (reads remain probabilistically safe).
func New(sys *quorum.System, key string, cfg Config) *Register {
	return &Register{sys: sys, key: key, cfg: cfg}
}

// ReadResult is the outcome of a Read.
type ReadResult struct {
	// OK is false when no value could be found (never written, or the
	// lookup quorum missed every replica).
	OK bool
	// Value is the payload read.
	Value string
	// Version is the stamp of the value read.
	Version uint64
}

// newest returns the highest-stamped value among the collected replies.
func newest(values []string) (Versioned, bool) {
	if len(values) == 0 {
		return Versioned{}, false
	}
	best := Decode(values[0])
	for _, s := range values[1:] {
		if v := Decode(s); best.Less(v) {
			best = v
		}
	}
	return best, true
}

// Read queries a full lookup quorum from node `at`, collects the replies,
// and returns the highest-versioned value found.
func (r *Register) Read(at int, done func(ReadResult)) {
	r.sys.LookupCollect(at, r.key, windowSecs, func(res quorum.CollectResult) {
		best, ok := newest(res.Values)
		if !ok {
			if done != nil {
				done(ReadResult{})
			}
			return
		}
		if r.cfg.WriteBack {
			r.sys.Advertise(at, r.key, Encode(best), nil)
		}
		if done != nil {
			done(ReadResult{OK: true, Value: best.Data, Version: best.Version})
		}
	})
}

// Write stores data from node `at`: it first queries a full lookup quorum
// for the current version, then advertises the value with the next version.
// done (may be nil) reports the stamp written and how many replicas stored
// it.
func (r *Register) Write(at int, data string, done func(v Versioned, placed int)) {
	r.sys.LookupCollect(at, r.key, windowSecs, func(res quorum.CollectResult) {
		cur, _ := newest(res.Values)
		next := Versioned{Version: cur.Version + 1, Writer: at, Data: data}
		r.sys.Advertise(at, r.key, Encode(next), func(ar quorum.AdvertiseResult) {
			if done != nil {
				done(next, ar.Placed)
			}
		})
	})
}
