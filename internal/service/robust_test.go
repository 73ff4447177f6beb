package service

// Graceful-degradation tests: recovery quarantine, transient-error
// retry, and bounded-admission load shedding. The fault-injection side
// uses internal/store/faultfs through the store's FS seam; the
// quarantine side corrupts real files in a temp dir, as an operator
// incident would.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	fd "repro"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

func TestRecoverQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("good", testDB(t, "chain", 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("bad", testDB(t, "chain", 2)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the second snapshot in place: flip its magic.
	if err := os.WriteFile(filepath.Join(dir, "bad.fdb"), []byte("garbage, not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Store: st})
	defer svc.Close()
	infos, err := svc.Recover()
	if err == nil {
		t.Fatal("Recover over a corrupt snapshot reported no error")
	}
	if len(infos) != 1 || infos[0].Name != "good" {
		t.Fatalf("recovered %v, want just [good]", infos)
	}
	if got := svc.ListDatabases(); len(got) != 1 || got[0].Name != "good" {
		t.Fatalf("serving %v, want just [good]", got)
	}

	qs := svc.QuarantinedDatabases()
	if len(qs) != 1 {
		t.Fatalf("QuarantinedDatabases = %v, want one entry", qs)
	}
	if qs[0].Name != "bad" || qs[0].Label != "bad.corrupt-1" || qs[0].Error == "" {
		t.Fatalf("quarantine entry = %+v, want name bad, label bad.corrupt-1, non-empty error", qs[0])
	}
	if got := svc.Stats().QuarantinedDatabases; len(got) != 1 || got[0] != qs[0] {
		t.Fatalf("Stats.QuarantinedDatabases = %v, want %v", got, qs)
	}
	// The corrupt bytes moved aside on disk — not deleted, not in place.
	if _, err := os.Stat(filepath.Join(dir, "bad.fdb")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("bad.fdb still in place after quarantine (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.fdb.corrupt-1")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}

	// Quarantine-loop regression: a second recovery (fresh service, same
	// store) must find nothing new to quarantine — the moved-aside files
	// are reported, with no error of their own, and nothing re-fails.
	svc2 := New(Config{Store: st})
	defer svc2.Close()
	if _, err := svc2.Recover(); err != nil {
		t.Fatalf("second Recover still failing: %v", err)
	}
	qs2 := svc2.QuarantinedDatabases()
	if len(qs2) != 1 || qs2[0].Label != "bad.corrupt-1" || qs2[0].Error != "" {
		t.Fatalf("second recovery quarantine list = %+v, want the inherited entry only", qs2)
	}
	// The name is reusable after quarantine.
	if _, err := svc2.AddDatabase("bad", testDB(t, "chain", 3)); err != nil {
		t.Fatalf("re-registering a quarantined name: %v", err)
	}
}

// appendBatch builds one appendable tuple for relation 0 of db.
func appendBatch(db *relation.Database, label string) []relation.Tuple {
	width := db.Relation(0).Schema().Len()
	return []relation.Tuple{{Label: label, Values: make([]relation.Value, width), Imp: 1, Prob: 1}}
}

func TestAppendRowsRetriesTransientFaults(t *testing.T) {
	fsys := faultfs.New()
	st, err := store.OpenFS("data", fsys)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	svc := New(Config{
		Store: st,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	defer svc.Close()
	db := testDB(t, "chain", 1)
	if _, err := svc.AddDatabase("d", db); err != nil {
		t.Fatal(err)
	}
	relName := db.Relation(0).Name()

	// One transient failure on the next store operation (the snapshot
	// open inside Append): the retry must land the rows.
	fsys.ArmAfter(1, faultfs.FailOp)
	info, err := svc.AppendRows("d", relName, appendBatch(db, "r1"))
	if err != nil {
		t.Fatalf("AppendRows with one transient fault: %v", err)
	}
	if !fsys.Fired() {
		t.Fatal("fault never fired")
	}
	if info.Tuples != db.NumTuples()+1 {
		t.Fatalf("after retried append: %d tuples, want %d", info.Tuples, db.NumTuples()+1)
	}
	if got := svc.Stats().StoreRetries; got != 1 {
		t.Fatalf("StoreRetries = %d, want 1", got)
	}
	if len(slept) != 1 || slept[0] != 10*time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want [10ms]", slept)
	}

	// A persistent fault: re-arm inside Sleep so every attempt fails on
	// its first store operation. The default three attempts sleep with
	// doubling backoff, then surface the injected error; nothing is
	// appended.
	slept = nil
	fsys.ArmAfter(1, faultfs.FailOp)
	svc.cfg.Sleep = func(d time.Duration) {
		slept = append(slept, d)
		fsys.ArmAfter(1, faultfs.FailOp)
	}
	if _, err := svc.AppendRows("d", relName, appendBatch(db, "r2")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("AppendRows under persistent faults: err = %v, want ErrInjected", err)
	}
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want [10ms 20ms]", slept)
	}
	if got := svc.Stats().StoreRetries; got != 3 {
		t.Fatalf("StoreRetries = %d, want 3 (1 + 2 from the failed append)", got)
	}
}

func TestPermanentStoreErrorsNotRetried(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	svc := New(Config{Store: st, Sleep: func(d time.Duration) { slept = append(slept, d) }})
	defer svc.Close()
	db := testDB(t, "chain", 1)
	if _, err := svc.AddDatabase("d", db); err != nil {
		t.Fatal(err)
	}
	// Replace the snapshot behind the service's back: the append's
	// fingerprint check now fails permanently.
	if err := st.Save("d", testDB(t, "chain", 2)); err != nil {
		t.Fatal(err)
	}
	_, err = svc.AppendRows("d", db.Relation(0).Name(), appendBatch(db, "x"))
	if !errors.Is(err, store.ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
	if len(slept) != 0 {
		t.Fatalf("a permanent error was retried (%d sleeps)", len(slept))
	}
	if got := svc.Stats().StoreRetries; got != 0 {
		t.Fatalf("StoreRetries = %d, want 0", got)
	}
}

func TestAdmissionTimeoutShedsLoad(t *testing.T) {
	svc := New(Config{Workers: 1, AdmissionTimeout: 2 * time.Millisecond})
	defer svc.Close()
	if _, err := svc.AddDatabase("d", testDB(t, "chain", 1)); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "d", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the only worker slot directly, then both StartQuery and
	// Next must shed within the timeout instead of queueing.
	svc.sem <- struct{}{}
	if _, err := svc.StartQuery(context.Background(), "d", fd.Query{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("StartQuery under load: err = %v, want ErrOverloaded", err)
	}
	if _, _, err := q.Next(4); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Next under load: err = %v, want ErrOverloaded", err)
	}
	if got := svc.Stats().AdmissionTimeouts; got != 2 {
		t.Fatalf("AdmissionTimeouts = %d, want 2", got)
	}

	// Shedding is not failure: once the slot frees, the same session
	// pages normally.
	<-svc.sem
	if _, _, err := q.Next(4); err != nil {
		t.Fatalf("Next after load cleared: %v", err)
	}
}

// TestNoGoroutineLeakUnderFaults drives the service through faulted
// and shed requests and asserts the goroutine count settles back —
// the regression check the CI fault-injection job runs under -race.
func TestNoGoroutineLeakUnderFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		fsys := faultfs.New()
		st, err := store.OpenFS("data", fsys)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Workers: 2, AdmissionTimeout: time.Millisecond, Store: st,
			Sleep: func(time.Duration) {}})
		defer svc.Close()
		db := testDB(t, "chain", 1)
		if _, err := svc.AddDatabase("d", db); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if i%3 == 0 {
				fsys.ArmAfter(1, faultfs.FailOp)
			}
			_, _ = svc.AppendRows("d", db.Relation(0).Name(), appendBatch(db, "x"))
			q, err := svc.StartQuery(context.Background(), "d", fd.Query{})
			if err != nil {
				continue
			}
			_, _, _ = q.Next(8)
			q.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStorageFaultRegistration: a snapshot save that keeps failing
// surfaces wrapped in ErrStorage (root cause kept) and leaves the name
// unregistered; a failing snapshot delete surfaces the same way and
// keeps the registration.
func TestStorageFaultRegistration(t *testing.T) {
	fsys := faultfs.New()
	st, err := store.OpenFS("data", fsys)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Store: st, Sleep: func(time.Duration) { fsys.ArmAfter(1, faultfs.FailOp) }})
	defer svc.Close()
	db := testDB(t, "chain", 3)

	fsys.ArmAfter(1, faultfs.FailOp)
	_, err = svc.AddDatabase("w", db)
	if !errors.Is(err, ErrStorage) || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("AddDatabase under persistent faults: err = %v, want ErrStorage wrapping ErrInjected", err)
	}
	if _, ok := svc.Database("w"); ok {
		t.Fatal("a failed registration left the name registered")
	}

	// The name stayed free: with the disk healthy the registration
	// lands, and a second one is a conflict, not a storage failure.
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDatabase("w", db); !errors.Is(err, ErrDatabaseExists) || errors.Is(err, ErrStorage) {
		t.Fatalf("duplicate registration: err = %v, want ErrDatabaseExists", err)
	}

	fsys.ArmAfter(1, faultfs.FailOp)
	if err := svc.DropDatabase("w"); !errors.Is(err, ErrStorage) {
		t.Fatalf("DropDatabase under a fault: err = %v, want ErrStorage", err)
	}
	if _, ok := svc.Database("w"); !ok {
		t.Fatal("a failed drop unregistered the database")
	}
}
