package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"graphlocality/internal/vfs"
)

// Random-access container reading. ReadContainer verifies and
// materializes every section, which is right for small artifacts but
// defeats the point of out-of-core formats whose payload sections are
// larger than memory. ContainerFile verifies the header-CRC-guarded
// section table up front — so every name, length and payload offset is
// trusted — and then serves three access shapes:
//
//   - ReadSection: full read + section-CRC verification (small sections);
//   - SectionReader: an io.ReaderAt over one section's byte extent for
//     callers that carry their own finer-grained checksums (the segmented
//     CSR's per-segment CRC32C index);
//   - Sections/SectionSize: table inspection without any payload I/O.
//
// Nothing escapes unverified: full reads are CRC-checked here, and
// sub-range readers are only handed to formats whose own framing checks
// every byte before use.

// sectionExtent is one table entry plus its resolved payload location.
type sectionExtent struct {
	name   string
	offset int64 // absolute payload start within the file
	length uint64
	crc    uint32
}

// ContainerFile is an open container whose section table has been read
// and verified against the header checksum. It keeps the file handle
// open for random payload access; Close releases it. Safe for
// concurrent reads (ReadAt only).
type ContainerFile struct {
	f        vfs.File
	path     string
	extents  []sectionExtent
	fileSize int64
}

// OpenContainer opens and header-verifies the container at path
// through fsys (nil = the OS passthrough) without reading any payload
// bytes. Verification failures — bad magic, bad version, a corrupt
// table, a file shorter or longer than the table describes — are typed
// *IntegrityError with Path set (no quarantine: the caller owns the
// file's lifecycle).
func OpenContainer(fsys vfs.FS, path string) (*ContainerFile, error) {
	fsys = vfs.Of(fsys)
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	cf, err := newContainerFile(f, path)
	if err != nil {
		f.Close()
		var ie *IntegrityError
		if errors.As(err, &ie) {
			ie.Path = path
		}
		return nil, err
	}
	return cf, nil
}

func newContainerFile(f vfs.File, path string) (*ContainerFile, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// Parse the header exactly like ReadContainer, counting bytes so the
	// payload offsets can be resolved once the table checks out.
	br := bufio.NewReader(io.NewSectionReader(f, 0, st.Size()))
	hr := &crcReader{r: br, h: crc32.New(Castagnoli)}
	var consumed int64
	readFull := func(p []byte) error {
		n, err := io.ReadFull(hr, p)
		consumed += int64(n)
		return err
	}

	magic := make([]byte, len(containerMagic))
	if err := readFull(magic); err != nil {
		return nil, integrityf("reading magic: %v", err)
	}
	if string(magic) != containerMagic {
		return nil, integrityf("bad magic %q (want %q)", magic, containerMagic)
	}
	var u32 [4]byte
	if err := readFull(u32[:]); err != nil {
		return nil, integrityf("reading version: %v", err)
	}
	if v := binary.LittleEndian.Uint32(u32[:]); v != containerVersion {
		return nil, integrityf("unsupported container version %d (want %d)", v, containerVersion)
	}
	if err := readFull(u32[:]); err != nil {
		return nil, integrityf("reading section count: %v", err)
	}
	nsect := binary.LittleEndian.Uint32(u32[:])
	if nsect > maxSections {
		return nil, integrityf("header claims %d sections, over the limit %d", nsect, maxSections)
	}
	extents := make([]sectionExtent, 0, nsect)
	var u16 [2]byte
	var u64 [8]byte
	for i := uint32(0); i < nsect; i++ {
		if err := readFull(u16[:]); err != nil {
			return nil, integrityf("section %d: reading name length: %v", i, err)
		}
		nameLen := binary.LittleEndian.Uint16(u16[:])
		if nameLen == 0 || nameLen > maxSectionName {
			return nil, integrityf("section %d: name length %d out of range", i, nameLen)
		}
		name := make([]byte, nameLen)
		if err := readFull(name); err != nil {
			return nil, integrityf("section %d: reading name: %v", i, err)
		}
		var e sectionExtent
		e.name = string(name)
		if err := readFull(u64[:]); err != nil {
			return nil, integrityf("section %q: reading length: %v", e.name, err)
		}
		e.length = binary.LittleEndian.Uint64(u64[:])
		if e.length > maxSectionBytes {
			return nil, integrityf("section %q claims %d bytes, over the limit %d", e.name, e.length, uint64(maxSectionBytes))
		}
		if err := readFull(u32[:]); err != nil {
			return nil, integrityf("section %q: reading checksum: %v", e.name, err)
		}
		e.crc = binary.LittleEndian.Uint32(u32[:])
		extents = append(extents, e)
	}
	wantHdr := hr.h.Sum32()
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, integrityf("reading header checksum: %v", err)
	}
	consumed += 4
	if got := binary.LittleEndian.Uint32(hdr[:]); got != wantHdr {
		return nil, integrityf("header checksum mismatch (file %08x, computed %08x)", got, wantHdr)
	}

	// Resolve payload offsets and require the file to end exactly where
	// the table says it does — same trailing-bytes discipline as
	// ReadContainer, enforced via Stat instead of a drain read.
	off := consumed
	for i := range extents {
		extents[i].offset = off
		if extents[i].length > uint64(st.Size()) || off > st.Size()-int64(extents[i].length) {
			return nil, integrityf("section %q extends past end of file (offset %d, length %d, file %d)",
				extents[i].name, off, extents[i].length, st.Size())
		}
		off += int64(extents[i].length)
	}
	if off != st.Size() {
		return nil, integrityf("trailing bytes after the last section (%d past table end)", st.Size()-off)
	}
	return &ContainerFile{f: f, path: path, extents: extents, fileSize: st.Size()}, nil
}

// Path returns the path the container was opened from.
func (c *ContainerFile) Path() string { return c.path }

// Sections returns the verified table's section names in file order.
func (c *ContainerFile) Sections() []string {
	names := make([]string, len(c.extents))
	for i, e := range c.extents {
		names[i] = e.name
	}
	return names
}

// SectionSize returns the byte length of the named section, or false if
// the table has no such section.
func (c *ContainerFile) SectionSize(name string) (uint64, bool) {
	if e := c.find(name); e != nil {
		return e.length, true
	}
	return 0, false
}

func (c *ContainerFile) find(name string) *sectionExtent {
	for i := range c.extents {
		if c.extents[i].name == name {
			return &c.extents[i]
		}
	}
	return nil
}

// ReadSection reads and CRC-verifies the named section in full,
// returning *IntegrityError on mismatch. Missing sections are reported
// as an integrity error too: the caller asked for a section the format
// contract says must exist.
func (c *ContainerFile) ReadSection(name string) ([]byte, error) {
	e := c.find(name)
	if e == nil {
		return nil, &IntegrityError{Path: c.path, Reason: fmt.Sprintf("missing section %q", name)}
	}
	data := make([]byte, e.length)
	if _, err := c.f.ReadAt(data, e.offset); err != nil {
		return nil, &IntegrityError{Path: c.path, Reason: fmt.Sprintf("section %q: reading payload: %v", name, err)}
	}
	if got := crc32.Checksum(data, Castagnoli); got != e.crc {
		return nil, &IntegrityError{Path: c.path,
			Reason: fmt.Sprintf("section %q checksum mismatch (table %08x, computed %08x)", name, e.crc, got)}
	}
	return data, nil
}

// SectionReader returns an io.ReaderAt covering exactly the named
// section's payload bytes, with its length. The bytes are NOT verified
// against the section checksum — this entry point exists for formats
// that carry their own per-record checksums over sub-ranges (verifying a
// multi-gigabyte section up front would force the whole-file read this
// type exists to avoid). Callers must verify every range they use.
func (c *ContainerFile) SectionReader(name string) (*io.SectionReader, error) {
	e := c.find(name)
	if e == nil {
		return nil, &IntegrityError{Path: c.path, Reason: fmt.Sprintf("missing section %q", name)}
	}
	return io.NewSectionReader(c.f, e.offset, int64(e.length)), nil
}

// Close releases the underlying file.
func (c *ContainerFile) Close() error { return c.f.Close() }
