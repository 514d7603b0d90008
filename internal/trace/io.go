package trace

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/isa"
)

// Binary trace format: a gzip stream containing a fixed header, the
// workload name, and one fixed-width record per instruction. The
// format is versioned and self-describing enough to reject foreign
// files; it exists so expensive captures can be snapshotted and
// replayed (fgstpsim -savetrace / -loadtrace).
//
// The uncompressed stream is the trace's canonical form, all integers
// little-endian:
//
//	header  magic u32, version u32, name length u32, count u64
//	name    name length bytes
//	record  PC, Addr, Target, NextPC u64; Class, Dst, Src1, Src2,
//	        Src3, flags u8; 2 zero bytes (count records, Seq implicit)
//
// Save gzips it, Load parses it back and Digest hashes it; all three
// go through the codec below, so the layout lives in one place.

// traceMagic identifies the file format; traceVersion its revision.
const (
	traceMagic   = 0x46675354 // "FgST"
	traceVersion = 1
)

const (
	headerSize = 4 + 4 + 4 + 8
	recordSize = 4*8 + 6 + 2
	// chunkRecords bounds the encode buffer: records are streamed to
	// the writer in chunks of this many, never as a whole-trace buffer.
	chunkRecords = 256
)

// Flag bits of a record's flags byte.
const (
	flagTaken = 1 << iota
	flagIndirect
	flagCall
	flagRet
)

func packFlags(d *isa.DynInst) uint8 {
	var f uint8
	if d.Taken {
		f |= flagTaken
	}
	if d.Indirect {
		f |= flagIndirect
	}
	if d.IsCall {
		f |= flagCall
	}
	if d.IsRet {
		f |= flagRet
	}
	return f
}

// appendRecord appends the recordSize-byte encoding of d to b.
func appendRecord(b []byte, d *isa.DynInst) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, d.PC)
	b = le.AppendUint64(b, d.Addr)
	b = le.AppendUint64(b, d.Target)
	b = le.AppendUint64(b, d.NextPC)
	return append(b, uint8(d.Class), uint8(d.Dst),
		uint8(d.Src1), uint8(d.Src2), uint8(d.Src3), packFlags(d), 0, 0)
}

// decodeRecord parses one recordSize-byte record as instruction seq.
// The padding bytes are ignored. The timing models index latency and
// scoreboard tables by Class and Reg, so out-of-range values die here,
// not there.
func decodeRecord(rec []byte, seq uint64) (isa.DynInst, error) {
	le := binary.LittleEndian
	flags := rec[37]
	d := isa.DynInst{
		Seq: seq, PC: le.Uint64(rec[0:]), Addr: le.Uint64(rec[8:]),
		Target: le.Uint64(rec[16:]), NextPC: le.Uint64(rec[24:]),
		Class: isa.Class(rec[32]), Dst: isa.Reg(rec[33]),
		Src1: isa.Reg(rec[34]), Src2: isa.Reg(rec[35]), Src3: isa.Reg(rec[36]),
		Taken: flags&flagTaken != 0, Indirect: flags&flagIndirect != 0,
		IsCall: flags&flagCall != 0, IsRet: flags&flagRet != 0,
	}
	if int(d.Class) >= isa.NumClasses {
		return d, fmt.Errorf("trace: record %d: invalid class %d", seq, rec[32])
	}
	for _, r := range [...]isa.Reg{d.Dst, d.Src1, d.Src2, d.Src3} {
		if !r.Valid() && r != isa.RegNone {
			return d, fmt.Errorf("trace: record %d: invalid register %d", seq, uint8(r))
		}
	}
	return d, nil
}

// encode streams the canonical uncompressed form of t to w in chunks
// of chunkRecords records.
func (t *Trace) encode(w io.Writer) error {
	le := binary.LittleEndian
	buf := make([]byte, 0, chunkRecords*recordSize)
	buf = le.AppendUint32(buf, traceMagic)
	buf = le.AppendUint32(buf, traceVersion)
	buf = le.AppendUint32(buf, uint32(len(t.Name)))
	buf = le.AppendUint64(buf, uint64(len(t.Insts)))
	buf = append(buf, t.Name...)
	for i := range t.Insts {
		if len(buf)+recordSize > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = appendRecord(buf, &t.Insts[i])
	}
	_, err := w.Write(buf)
	return err
}

// Digest returns the SHA-256 of the trace's canonical uncompressed
// form: every field Save persists, and nothing else. Two traces share
// a digest exactly when Save writes the same records for both, and
// unlike the gzip file the digest does not depend on the compressor.
func (t *Trace) Digest() [sha256.Size]byte {
	h := sha256.New()
	t.encode(h) // hash.Hash writes never fail
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Save writes the trace to w in the binary format.
func (t *Trace) Save(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := t.encode(zw); err != nil {
		return err
	}
	return zw.Close()
}

// Load reads a trace written by Save.
func Load(r io.Reader) (*Trace, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: not a trace file: %w", err)
	}
	defer zr.Close()
	br := bufio.NewReader(zr)

	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	le := binary.LittleEndian
	magic, version := le.Uint32(hdr[0:]), le.Uint32(hdr[4:])
	nameLen, count := le.Uint32(hdr[8:]), le.Uint64(hdr[12:])
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", magic)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("trace: implausible instruction count %d", count)
	}

	// The header count is untrusted: allocate incrementally (bounded
	// initial capacity) so a crafted header cannot force a giant
	// up-front allocation before the record stream proves itself.
	const maxPrealloc = 1 << 20
	prealloc := count
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	t := &Trace{Name: string(name), Insts: make([]isa.DynInst, 0, prealloc)}
	var rec [recordSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: truncated at record %d: %w", i, err)
		}
		d, err := decodeRecord(rec[:], i)
		if err != nil {
			return nil, err
		}
		t.Insts = append(t.Insts, d)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// SaveFile writes the trace to path.
func (t *Trace) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile reads a trace from path.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
