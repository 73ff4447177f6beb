// Package store is the on-disk columnar snapshot store: it persists
// registered databases as versioned binary snapshot files (the format
// of relation.WriteSnapshot, see docs/SNAPSHOT_FORMAT.md) plus an
// append-only row log per database, so appends are durable without
// rewriting the whole snapshot. Load replays the log through
// relation.Database.Extend, the call live appends make; compaction
// folds it back into the snapshot.
//
// Crash safety: snapshots are written to a temporary file, fsynced and
// renamed into place, so a crash mid-save leaves the previous snapshot
// intact; every snapshot section and every log record is CRC32-
// checksummed and the snapshot embeds the database fingerprint, so a
// torn or corrupt file fails loudly at load instead of serving wrong
// answers. The row log additionally records the fingerprint of the
// snapshot it extends, so a log can never be replayed onto the wrong
// (e.g. freshly re-registered) snapshot.
package store

import (
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/relation"
)

const (
	snapshotExt = ".fdb"
	logExt      = ".fdlog"
	markerExt   = ".compact"
	tmpPrefix   = ".snapshot-"
	// corruptInfix marks quarantined files: Quarantine renames
	// "<name>.fdb" to "<name>.fdb.corrupt-N" (and likewise the log and
	// marker), so a corrupt database stops re-failing every recovery
	// while its bytes stay on disk for forensics.
	corruptInfix = ".corrupt-"
)

// ErrFingerprintMismatch marks an Append whose expected snapshot
// fingerprint does not match the snapshot on disk (the database was
// replaced under this name). It is a permanent error: callers must not
// retry it.
var ErrFingerprintMismatch = errors.New("snapshot fingerprint mismatch")

// Store manages the snapshot and log files of a data directory. All
// methods are safe for concurrent use; mutating operations on the same
// store are serialised.
type Store struct {
	dir string
	fs  FS
	mu  sync.Mutex
	// tmpSeq names temporary files uniquely within this store; only
	// touched under mu.
	tmpSeq uint64
	// obs, when set, observes each public operation's latency and
	// outcome; read and written under mu.
	obs func(op string, d time.Duration, err error)
}

// Instrument installs an observer invoked once per public mutating or
// loading operation (op is "save", "load", "append", "compact" or
// "delete") with the operation's wall-clock duration and outcome. One
// observer at most; nil uninstalls. The observer runs with the store's
// lock held — keep it cheap and never call back into the store.
func (s *Store) Instrument(obs func(op string, d time.Duration, err error)) {
	s.mu.Lock()
	s.obs = obs
	s.mu.Unlock()
}

// observe reports one finished operation to the installed observer.
// Called via defer with mu held; start is captured at defer time.
func (s *Store) observe(op string, start time.Time, errp *error) {
	if s.obs != nil {
		s.obs(op, time.Since(start), *errp)
	}
}

// Open opens (creating if necessary) a store rooted at dir on the
// operating-system filesystem.
func Open(dir string) (*Store, error) { return OpenFS(dir, OSFS()) }

// OpenFS opens a store rooted at dir on an arbitrary filesystem —
// the seam the fault-injection harness uses to run the store on
// faultfs.
func OpenFS(dir string, fsys FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if fsys == nil {
		return nil, fmt.Errorf("store: nil filesystem")
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Database names are path-escaped into file names, so any registrable
// name round-trips through the filesystem.
func (s *Store) snapshotPath(name string) string {
	return filepath.Join(s.dir, url.PathEscape(name)+snapshotExt)
}

func (s *Store) logPath(name string) string {
	return filepath.Join(s.dir, url.PathEscape(name)+logExt)
}

// markerPath names the compaction marker: it exists only inside a
// Save that is folding a row log away, and records the fingerprint of
// the snapshot that replaces the log. A crash between the snapshot
// rename and the log removal leaves the marker behind, letting the
// next load tell "interrupted compaction, the log is already folded
// in" apart from a genuinely mismatched log.
func (s *Store) markerPath(name string) string {
	return filepath.Join(s.dir, url.PathEscape(name)+markerExt)
}

// List returns the names of all stored databases, sorted. Quarantined
// databases (see Quarantine) are excluded — their files no longer end
// in the snapshot extension.
func (s *Store) List() ([]string, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e, snapshotExt) || strings.HasPrefix(e, tmpPrefix) {
			continue
		}
		name, err := url.PathUnescape(strings.TrimSuffix(e, snapshotExt))
		if err != nil {
			return nil, fmt.Errorf("store: undecodable snapshot file %q: %w", e, err)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Save writes a full snapshot of db under name, atomically replacing
// any previous snapshot, and truncates the row log (the snapshot now
// holds everything the log held).
func (s *Store) Save(name string, db *relation.Database) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.observe("save", time.Now(), &err)
	return s.save(name, db)
}

func (s *Store) save(name string, db *relation.Database) error {
	tmpName := s.tmpName()
	tmp, err := s.fs.Create(tmpName)
	if err != nil {
		return fmt.Errorf("store: save %q: %w", name, err)
	}
	defer s.fs.Remove(tmpName) // no-op after the rename succeeds
	if err := db.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("store: save %q: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: save %q: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: save %q: %w", name, err)
	}
	// When this save folds an existing row log away, drop a compaction
	// marker carrying the new snapshot's fingerprint first. If the
	// process dies between the snapshot rename and the log removal, the
	// next load finds marker fp == snapshot fp and knows the log is
	// already folded in (it deletes it) instead of refusing the
	// fingerprint mismatch forever.
	hasLog := false
	if _, err := s.fs.Stat(s.logPath(name)); err == nil {
		hasLog = true
		if err := s.writeMarker(name, db.Fingerprint()); err != nil {
			return fmt.Errorf("store: save %q: %w", name, err)
		}
	}
	if err := s.fs.Rename(tmpName, s.snapshotPath(name)); err != nil {
		return fmt.Errorf("store: save %q: %w", name, err)
	}
	if err := s.fs.Remove(s.logPath(name)); err != nil && !notExist(err) {
		return fmt.Errorf("store: save %q: truncating log: %w", name, err)
	}
	if hasLog {
		if err := s.fs.Remove(s.markerPath(name)); err != nil && !notExist(err) {
			return fmt.Errorf("store: save %q: removing marker: %w", name, err)
		}
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: save %q: syncing directory: %w", name, err)
	}
	return nil
}

// tmpName names a fresh temporary file; called with mu held.
func (s *Store) tmpName() string {
	s.tmpSeq++
	return filepath.Join(s.dir, fmt.Sprintf("%s%d", tmpPrefix, s.tmpSeq))
}

// writeMarker atomically writes the compaction marker for name: the
// hex fingerprint of the snapshot that replaces the current row log.
func (s *Store) writeMarker(name string, fp uint64) error {
	tmpName := s.tmpName()
	tmp, err := s.fs.Create(tmpName)
	if err != nil {
		return err
	}
	defer s.fs.Remove(tmpName)
	if _, err := fmt.Fprintf(tmp, "%016x\n", fp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return s.fs.Rename(tmpName, s.markerPath(name))
}

// readMarker reads the compaction marker if present, returning the
// recorded fingerprint. A malformed marker is a loud error.
func (s *Store) readMarker(name string) (fp uint64, exists bool, err error) {
	raw, err := readFile(s.fs, s.markerPath(name))
	if notExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("store: reading compaction marker: %w", err)
	}
	if _, err := fmt.Sscanf(string(raw), "%x", &fp); err != nil {
		return 0, false, fmt.Errorf("store: malformed compaction marker %q", raw)
	}
	return fp, true, nil
}

// syncDir fsyncs the store directory, best effort — used on cleanup
// paths whose durability the next recovery re-establishes anyway.
func (s *Store) syncDir() { _ = s.fs.SyncDir(s.dir) }

// Load reads the stored database of that name: the snapshot is loaded
// (adopting its columnar mirror directly, no re-encoding) and any row
// log is replayed through relation.Database.Extend, the call live
// appends made, so the result is frozen and fingerprint-equal to the
// database before the restart. It reports whether log records were
// replayed — a true return means the caller should Compact (or Save)
// to fold the log back into the snapshot. Corrupt or truncated
// snapshots and logs fail loudly.
func (s *Store) Load(name string) (db *relation.Database, replayed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.observe("load", time.Now(), &err)
	return s.load(name)
}

func (s *Store) load(name string) (*relation.Database, bool, error) {
	f, err := s.fs.Open(s.snapshotPath(name))
	if err != nil {
		return nil, false, fmt.Errorf("store: load %q: %w", name, err)
	}
	db, err := relation.ReadSnapshot(f)
	f.Close()
	if err != nil {
		return nil, false, fmt.Errorf("store: load %q: %w", name, err)
	}

	// A leftover compaction marker means a Save crashed mid-cleanup.
	// Marker fp == snapshot fp: the rename landed, the log's content is
	// already inside this snapshot — finish the cleanup. Otherwise the
	// crash hit before the rename: old snapshot and log are both
	// intact, so drop the marker and replay normally.
	if mfp, exists, err := s.readMarker(name); err != nil {
		return nil, false, fmt.Errorf("store: load %q: %w", name, err)
	} else if exists {
		if mfp == db.Fingerprint() {
			if err := s.fs.Remove(s.logPath(name)); err != nil && !notExist(err) {
				return nil, false, fmt.Errorf("store: load %q: clearing folded log: %w", name, err)
			}
		}
		if err := s.fs.Remove(s.markerPath(name)); err != nil && !notExist(err) {
			return nil, false, fmt.Errorf("store: load %q: clearing marker: %w", name, err)
		}
		s.syncDir()
	}

	recs, fp, err := readLog(s.fs, s.logPath(name))
	if err != nil {
		return nil, false, fmt.Errorf("store: load %q: %w", name, err)
	}
	if len(recs) == 0 {
		return db, false, nil
	}
	if snapFP := db.Fingerprint(); fp != snapFP {
		return nil, false, fmt.Errorf("store: load %q: row log extends snapshot %016x, found snapshot %016x",
			name, fp, snapFP)
	}
	// Replay through Extend, the call that made the appends live.
	if db, err = db.Replay(recs); err != nil {
		return nil, false, fmt.Errorf("store: load %q: %w", name, err)
	}
	return db, true, nil
}

// Append durably appends tuples to relation relName of the stored
// database, writing row-log records instead of rewriting the snapshot.
// The log is created bound to the current snapshot's fingerprint,
// which must equal expectFP — the fingerprint of the snapshot the
// caller believes it is extending. The check turns "the database was
// dropped and re-registered under this name while the append was in
// flight" into an error instead of rows durably logged against the
// wrong snapshot.
func (s *Store) Append(name, relName string, tuples []relation.Tuple, expectFP uint64) (err error) {
	if len(tuples) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.observe("append", time.Now(), &err)

	sf, err := s.fs.Open(s.snapshotPath(name))
	if err != nil {
		return fmt.Errorf("store: append %q: %w", name, err)
	}
	fp, err := relation.ReadSnapshotFingerprint(sf)
	sf.Close()
	if err != nil {
		return fmt.Errorf("store: append %q: %w", name, err)
	}
	if fp != expectFP {
		return fmt.Errorf("store: append %q: %w: snapshot is %016x, expected %016x (database replaced?)",
			name, ErrFingerprintMismatch, fp, expectFP)
	}
	// Is this append creating the log file? Then its directory entry
	// must be fsynced below — a file fsync alone does not make a fresh
	// dentry durable, and a crash would silently lose the whole log
	// (found by the crash harness).
	_, statErr := s.fs.Stat(s.logPath(name))
	created := notExist(statErr)
	if err := appendLog(s.fs, s.logPath(name), fp, relName, tuples); err != nil {
		return err
	}
	if created {
		if err := s.fs.SyncDir(s.dir); err != nil {
			// Roll the fresh log back (its dentry never became durable
			// anyway), so a reported failure means no rows persisted and
			// the caller may retry without double-appending.
			_ = s.fs.Remove(s.logPath(name))
			return fmt.Errorf("store: append %q: syncing directory: %w", name, err)
		}
	}
	return nil
}

// Compact folds the row log back into the snapshot: when a log exists,
// the database is loaded (snapshot + replay) and saved as one fresh
// snapshot, and the log is truncated. It reports whether anything was
// compacted.
func (s *Store) Compact(name string) (compacted bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.observe("compact", time.Now(), &err)
	if _, err := s.fs.Stat(s.logPath(name)); notExist(err) {
		return false, nil
	}
	db, replayed, err := s.load(name)
	if err != nil {
		return false, fmt.Errorf("store: compact %q: %w", name, err)
	}
	if !replayed {
		// An empty (header-only) log: just drop it.
		if err := s.fs.Remove(s.logPath(name)); err != nil && !notExist(err) {
			return false, fmt.Errorf("store: compact %q: %w", name, err)
		}
		return false, nil
	}
	if err := s.save(name, db); err != nil {
		return false, fmt.Errorf("store: compact %q: %w", name, err)
	}
	return true, nil
}

// Delete removes the stored snapshot, log and compaction marker of
// that name. Deleting a name that was never stored is not an error.
func (s *Store) Delete(name string) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.observe("delete", time.Now(), &err)
	// The snapshot goes first: it is the file that makes the name
	// exist (List keys on it), so a crash mid-delete leaves either the
	// full database or orphaned log/marker files a later Save of the
	// same name overwrites harmlessly.
	if err := s.fs.Remove(s.snapshotPath(name)); err != nil && !notExist(err) {
		return fmt.Errorf("store: delete %q: %w", name, err)
	}
	if err := s.fs.Remove(s.logPath(name)); err != nil && !notExist(err) {
		return fmt.Errorf("store: delete %q: %w", name, err)
	}
	if err := s.fs.Remove(s.markerPath(name)); err != nil && !notExist(err) {
		return fmt.Errorf("store: delete %q: %w", name, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: delete %q: syncing directory: %w", name, err)
	}
	return nil
}

// Quarantine moves the files of name aside — "<file>.corrupt-N" for
// the first free N — so a database whose load keeps failing stops
// breaking every recovery while its bytes remain on disk for
// inspection. It returns the quarantine label "<name>.corrupt-N".
// Quarantining a name with no files is an error.
func (s *Store) Quarantine(name string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	esc := url.PathEscape(name)
	paths := []string{s.snapshotPath(name), s.logPath(name), s.markerPath(name)}
	for n := 1; ; n++ {
		suffix := fmt.Sprintf("%s%d", corruptInfix, n)
		taken := false
		for _, p := range paths {
			if _, err := s.fs.Stat(p + suffix); !notExist(err) {
				taken = true
				break
			}
		}
		if taken {
			continue
		}
		moved := 0
		for _, p := range paths {
			if _, err := s.fs.Stat(p); notExist(err) {
				continue
			}
			if err := s.fs.Rename(p, p+suffix); err != nil {
				return "", fmt.Errorf("store: quarantine %q: %w", name, err)
			}
			moved++
		}
		if moved == 0 {
			return "", fmt.Errorf("store: quarantine %q: no files to quarantine", name)
		}
		if err := s.fs.SyncDir(s.dir); err != nil {
			return "", fmt.Errorf("store: quarantine %q: syncing directory: %w", name, err)
		}
		return fmt.Sprintf("%s%s%d", esc, corruptInfix, n), nil
	}
}

// Quarantined is one quarantined database: the original name and the
// quarantine label its files carry.
type Quarantined struct {
	Name  string
	Label string
}

// ListQuarantined returns every quarantined database in the store,
// sorted by label.
func (s *Store) ListQuarantined() ([]Quarantined, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Quarantined
	for _, e := range entries {
		// Quarantined snapshots look like "<escaped>.fdb.corrupt-N";
		// one entry per database (the log and marker share the label).
		idx := strings.Index(e, snapshotExt+corruptInfix)
		if idx < 0 {
			continue
		}
		esc := e[:idx]
		name, err := url.PathUnescape(esc)
		if err != nil {
			return nil, fmt.Errorf("store: undecodable quarantined file %q: %w", e, err)
		}
		out = append(out, Quarantined{
			Name:  name,
			Label: esc + strings.TrimPrefix(e[idx:], snapshotExt),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out, nil
}
