package store

// The row-log files. Their bytes are relation's row-log format
// (relation.AppendRowLog, relation.ReadRowLog); this file keeps the
// file discipline around them: append, fsync, and roll a failed append
// back.

import (
	"fmt"

	"repro/internal/relation"
)

// appendLog appends one record per tuple to the log at path, creating
// the file (with a header binding it to fingerprint fp) when absent.
// The file is fsynced before returning, so a reported append is
// durable; a reported failure truncates the file back to its
// pre-append size, so a failed (and possibly retried) append never
// leaves a torn record for later appends to bury.
func appendLog(fsys FS, path string, fp uint64, relName string, tuples []relation.Tuple) (err error) {
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("store: appending log: %w", err)
	}
	defer f.Close()
	start, err := f.Size()
	if err != nil {
		return fmt.Errorf("store: appending log: %w", err)
	}
	defer func() {
		if err != nil {
			// Roll the partial batch back (best effort: if the truncate
			// also fails, the next load reports the torn tail loudly).
			_ = f.Truncate(start)
		}
	}()
	buf, err := relation.AppendRowLog(nil, start == 0, fp, relName, tuples)
	if err != nil {
		return fmt.Errorf("store: appending log: %w", err)
	}
	if _, err = f.Write(buf); err != nil {
		return fmt.Errorf("store: appending log: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("store: appending log: %w", err)
	}
	return nil
}

// readLog reads the row log at path, returning its records and the
// fingerprint of the snapshot it extends. A missing or empty file
// yields no records; any malformed byte is a loud error.
func readLog(fsys FS, path string) ([]relation.RowRecord, uint64, error) {
	f, err := fsys.Open(path)
	if notExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: reading log: %w", err)
	}
	defer f.Close()
	return relation.ReadRowLog(f)
}
