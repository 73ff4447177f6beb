package relation

import "bytes"

// SnapshotContentFingerprint decodes a snapshot without comparing the
// fingerprint its header stores, and returns the fingerprint its
// content hashes to; ok is false when the bytes do not decode. The
// fuzz targets use it to write a matching header, so mutated content
// reaches the checks behind the fingerprint comparison.
func SnapshotContentFingerprint(raw []byte) (fp uint64, ok bool) {
	db, _, err := decodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		return 0, false
	}
	return db.Fingerprint(), true
}
