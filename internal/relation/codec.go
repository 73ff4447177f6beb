package relation

// The binary codec both on-disk formats share: the snapshot
// (snapshot.go) and the row log (rowlog.go). Each file opens with the
// same 18-byte header and carries its content in length-prefixed,
// CRC32-checksummed payloads built from the same little-endian
// primitives (see docs/SNAPSHOT_FORMAT.md):
//
//	header   magic [4] | version u16 | fingerprint u64 | crc32 of the preceding 14 bytes
//	payload  length (u64 section / u32 record) | bytes | crc32(bytes)
//	lenstr   u32 length | bytes

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// headerLen is the byte length of the fixed file header: magic,
// version, fingerprint, header CRC.
const headerLen = 4 + 2 + 8 + 4

// appendHeader appends the file header binding the file to fingerprint
// fp.
func appendHeader(dst []byte, magic string, version uint16, fp uint64) []byte {
	start := len(dst)
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint16(dst, version)
	dst = binary.LittleEndian.AppendUint64(dst, fp)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// readHeader reads and verifies a file header written by appendHeader
// and returns its fingerprint. kind names the format in errors. An
// input that ends before the first header byte fails with an error
// wrapping io.EOF.
func readHeader(r io.Reader, kind, magic string, version uint16) (uint64, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("relation: reading %s header: %w", kind, err)
	}
	if string(hdr[0:4]) != magic {
		return 0, fmt.Errorf("relation: not a %s file (bad magic %q)", kind, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != version {
		return 0, fmt.Errorf("relation: unsupported %s version %d (supported: %d)", kind, v, version)
	}
	if got, want := crc32.ChecksumIEEE(hdr[:14]), binary.LittleEndian.Uint32(hdr[14:18]); got != want {
		return 0, fmt.Errorf("relation: %s header checksum mismatch", kind)
	}
	return binary.LittleEndian.Uint64(hdr[6:14]), nil
}

// readChunk is the first buffer size of readChecksummed: a payload
// longer than this is read in chunks that grow as bytes arrive.
const readChunk = 4 << 10

// readChecksummed reads an n-byte payload, at most limit, followed by
// its CRC32, and returns the verified payload. The buffer grows only as
// bytes arrive (doubling from readChunk), so a corrupt length field
// costs at most about twice the bytes actually present, never the
// declared length.
func readChecksummed(r io.Reader, n, limit uint64) ([]byte, error) {
	if n > limit {
		return nil, fmt.Errorf("declares %d bytes (cap %d)", n, limit)
	}
	buf := make([]byte, 0, min(n, readChunk))
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(len(buf)))))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(uint64(cap(buf)), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, fmt.Errorf("reading payload: %w", noEOF(err))
		}
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("reading checksum: %w", noEOF(err))
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(crc[:]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return buf, nil
}

// noEOF turns a clean end of input inside a frame into
// io.ErrUnexpectedEOF: the frame's length promised more bytes.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// payloadWriter serialises primitive values by appending to b.
type payloadWriter struct{ b []byte }

func (p *payloadWriter) u8(v byte) { p.b = append(p.b, v) }

func (p *payloadWriter) u32(v uint32) { p.b = binary.LittleEndian.AppendUint32(p.b, v) }

func (p *payloadWriter) i32(v int32) { p.u32(uint32(v)) }

func (p *payloadWriter) f64(v float64) {
	p.b = binary.LittleEndian.AppendUint64(p.b, math.Float64bits(v))
}

func (p *payloadWriter) str(s string) {
	p.u32(uint32(len(s)))
	p.b = append(p.b, s...)
}

// payloadReader deserialises primitive values from a payload, latching
// the first error (all further reads return zero values).
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) remaining() int { return len(p.b) - p.off }

// take returns the next n bytes, or nil (latching the error) when the
// payload holds fewer.
func (p *payloadReader) take(n int) []byte {
	if p.err != nil || n < 0 || p.remaining() < n {
		p.fail()
		return nil
	}
	p.off += n
	return p.b[p.off-n : p.off]
}

func (p *payloadReader) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("payload truncated")
	}
}

func (p *payloadReader) u8() byte {
	if b := p.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (p *payloadReader) u32() uint32 {
	if b := p.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (p *payloadReader) i32() int32 { return int32(p.u32()) }

func (p *payloadReader) f64() float64 {
	if b := p.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func (p *payloadReader) str() string {
	return string(p.take(int(p.u32())))
}
