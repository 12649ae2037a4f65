// Package store is the design-space explorer's on-disk checkpoint: a
// content-addressed key/value store of completed evaluations. Keys are
// the canonical evaluation identity (benchmark × configuration ×
// machine fingerprint); each record lands in its own JSON file named
// by the SHA-256 of its key, written atomically (temp file + rename),
// so a run killed at any instant leaves only whole records behind and
// a resumed run replays them instead of re-simulating. The store is
// safe for concurrent use by one process; cross-process writers are
// safe too because identical keys always carry identical contents.
//
// All disk traffic flows through a faultinject.FS, so the robustness
// suite can open a store over an injected filesystem and verify that
// I/O errors, latency spikes, and torn writes never publish a corrupt
// record — the atomic-write discipline confines damage to temp files
// that a later Open ignores.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dualbank/internal/cost"
	"dualbank/internal/faultinject"
)

// Record is one checkpointed evaluation. The fields mirror what the
// explorer needs to rebuild a frontier point without re-running:
// cycles, the memory-footprint breakdown, and the duplication stats.
// Err, when non-empty, records an infeasible configuration (e.g. a
// duplication set that overflows a bank) so resumed runs skip it
// without retrying.
type Record struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	Cycles int64  `json:"cycles"`

	MemXData int `json:"mem_x_data"`
	MemYData int `json:"mem_y_data"`
	MemStack int `json:"mem_stack"`
	MemInstr int `json:"mem_instr"`
	// MemExtra and MemNBanks carry the k-way footprint terms for
	// multi-bank design points; both are absent from classic records,
	// whose on-disk bytes are unchanged.
	MemExtra  []int `json:"mem_extra,omitempty"`
	MemNBanks int   `json:"mem_nbanks,omitempty"`

	DupStores  int      `json:"dup_stores"`
	Duplicated []string `json:"duplicated,omitempty"`

	Err string `json:"err,omitempty"`
}

// Mem returns the memory footprint the record holds.
func (r *Record) Mem() cost.Memory {
	return cost.Memory{
		XData: r.MemXData, YData: r.MemYData,
		Extra: r.MemExtra, NBanks: r.MemNBanks,
		Stack: r.MemStack, Instr: r.MemInstr,
	}
}

// SetMem records every term of the memory footprint m.
func (r *Record) SetMem(m cost.Memory) {
	r.MemXData, r.MemYData = m.XData, m.YData
	r.MemExtra, r.MemNBanks = m.Extra, m.NBanks
	r.MemStack, r.MemInstr = m.Stack, m.Instr
}

// Store is a directory of checkpointed evaluations with an in-memory
// index. The zero value is not usable; call Open.
type Store struct {
	dir string
	fs  faultinject.FS

	mu   sync.Mutex
	recs map[string]Record // key -> record, loaded lazily at Open
}

// Key builds the canonical content address of one evaluation:
// benchmark name, configuration key, and the machine-configuration
// fingerprint the measurement depends on.
func Key(bench, config, fingerprint string) string {
	return bench + "|" + config + "|" + fingerprint
}

// Open creates (if needed) and loads the store rooted at dir on the
// real filesystem.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, faultinject.OSFS{})
}

// OpenFS is Open over an explicit filesystem — the fault-injection
// seam. Corrupt or truncated record files — possible only from
// non-atomic external tampering — are skipped, not fatal: the
// evaluations re-run. A file that fails to read whole is likewise
// skipped rather than half-loaded.
func OpenFS(dir string, fsys faultinject.FS) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, fs: fsys, recs: make(map[string]Record)}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var f file
		if err := json.Unmarshal(data, &f); err != nil || f.Key == "" {
			continue
		}
		s.recs[f.Key] = f.Record
	}
	return s, nil
}

// file is the on-disk framing: the full key rides along with the
// record so the index can be rebuilt from the files alone.
type file struct {
	Key    string `json:"key"`
	Record Record `json:"record"`
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of loaded records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Get returns the record stored under key, if any.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[key]
	return r, ok
}

// GetOrLoad is Get falling through to disk on an index miss — the
// cross-process read path. A record another writer published into the
// same directory after this store opened is read, verified against the
// key (the file embeds it), indexed, and returned. Because keys are
// content addresses, a loaded record can never be stale: any file at
// the key's name holds the key's one value.
func (s *Store) GetOrLoad(key string) (Record, bool) {
	if r, ok := s.Get(key); ok {
		return r, true
	}
	data, err := s.fs.ReadFile(filepath.Join(s.dir, fileName(key)))
	if err != nil {
		return Record{}, false
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil || f.Key != key {
		return Record{}, false
	}
	s.mu.Lock()
	s.recs[key] = f.Record
	s.mu.Unlock()
	return f.Record, true
}

// Snapshot copies the whole index. The robustness suite compares it
// against a fresh Open of the same directory to prove the disk state
// reloads identically.
func (s *Store) Snapshot() map[string]Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Record, len(s.recs))
	for k, r := range s.recs {
		out[k] = r
	}
	return out
}

// Put checkpoints one evaluation, writing through to disk atomically
// before indexing it. A later Put of the same key overwrites — keys
// are content addresses, so the record is necessarily identical and
// the overwrite is idempotent. On any write failure the temp file is
// discarded and the index is left untouched: a failed Put never
// publishes a partial record, on disk or in memory.
func (s *Store) Put(key string, r Record) error {
	data, err := json.MarshalIndent(file{Key: key, Record: r}, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := fileName(key)
	tmp, err := s.fs.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", name, firstErr(werr, cerr))
	}
	if err := s.fs.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.recs[key] = r
	s.mu.Unlock()
	return nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// fileName is the content address on disk: the SHA-256 of the key.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

// PruneStats reports one Prune pass.
type PruneStats struct {
	// Kept and Removed count record files; KeptBytes is the surviving
	// on-disk footprint.
	Kept, Removed int
	KeptBytes     int64
	// TempSwept counts stale temp files cleaned up alongside.
	TempSwept int
}

// Prune bounds the store's disk footprint, evicting whole record files
// least-recently-written first (LRU by modification time) until the
// total fits maxBytes, and dropping any record older than maxAge. A
// zero bound disables that dimension; Prune(0, 0) only sweeps stale
// temp files (leftovers of writers killed mid-Put, eligible once they
// are an hour old).
//
// Prune is safe against concurrent writers, local or in other
// processes: eviction removes only whole published files, a Put racing
// an eviction either lands before it (and may be evicted — it is the
// oldest-cohort loser) or after it (and survives), and a re-Put of an
// evicted key rewrites the identical content under the identical name,
// so no interleaving can publish a torn or wrong record. Evicted keys
// are dropped from this store's index; other stores over the same
// directory may index them a while longer, which is harmless — a
// content-addressed record that re-appears is byte-identical.
func (s *Store) Prune(maxBytes int64, maxAge time.Duration) (PruneStats, error) {
	var st PruneStats
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	type rec struct {
		name  string
		size  int64
		mtime time.Time
	}
	now := time.Now()
	var recs []rec
	var total int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // vanished mid-scan: a concurrent prune or writer
		}
		if !strings.HasSuffix(e.Name(), ".json") {
			// A temp file. Sweep it only once it is stale: an hour is
			// far beyond any live Put's temp-file lifetime.
			if strings.Contains(e.Name(), ".json.tmp") && now.Sub(info.ModTime()) > time.Hour {
				if s.fs.Remove(filepath.Join(s.dir, e.Name())) == nil {
					st.TempSwept++
				}
			}
			continue
		}
		recs = append(recs, rec{name: e.Name(), size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	// Oldest first; ties broken by name so concurrent pruners converge
	// on the same victims.
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].mtime.Equal(recs[j].mtime) {
			return recs[i].mtime.Before(recs[j].mtime)
		}
		return recs[i].name < recs[j].name
	})
	// Reverse map file name → key, to drop evicted records from the
	// index; names not in it belong to other writers' records.
	s.mu.Lock()
	byName := make(map[string]string, len(s.recs))
	for k := range s.recs {
		byName[fileName(k)] = k
	}
	s.mu.Unlock()
	for _, r := range recs {
		evict := (maxBytes > 0 && total > maxBytes) ||
			(maxAge > 0 && now.Sub(r.mtime) > maxAge)
		if !evict {
			st.Kept++
			st.KeptBytes += r.size
			continue
		}
		if err := s.fs.Remove(filepath.Join(s.dir, r.name)); err != nil {
			// Already gone (a concurrent pruner won the race) or an
			// injected fault: either way the file no longer counts as
			// ours to evict, but keep its size conservative if it may
			// still exist.
			st.Kept++
			st.KeptBytes += r.size
			continue
		}
		total -= r.size
		st.Removed++
		if key, ok := byName[r.name]; ok {
			s.mu.Lock()
			delete(s.recs, key)
			s.mu.Unlock()
		}
	}
	return st, nil
}
