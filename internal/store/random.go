package store

import (
	"errors"
	"fmt"
	"io"

	"graphlocality/internal/vfs"
)

// Random-access container reading. ReadContainer verifies and
// materializes every section, which is right for small artifacts but
// defeats the point of out-of-core formats whose payload sections are
// larger than memory. ContainerFile runs the same table parser
// (readTable) over an open file, so every name, length and payload
// offset is trusted before any payload byte is read, and then serves
// three access shapes:
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

// ContainerFile is an open container whose section table has been read
// and verified against the header checksum. It keeps the file handle
// open for random payload access; Close releases it. Safe for
// concurrent reads (ReadAt only).
type ContainerFile struct {
	f       vfs.File
	path    string
	extents []sectionExtent
}

// OpenContainer opens and header-verifies the container at path
// through fsys (nil = the OS passthrough) without reading any payload
// bytes. Verification failures — bad magic, bad version, a corrupt
// table, a file shorter or longer than the table describes — are typed
// *IntegrityError with Path set (no quarantine: the caller owns the
// file's lifecycle). An I/O error is returned wrapped.
func OpenContainer(fsys vfs.FS, path string) (*ContainerFile, error) {
	f, err := vfs.Of(fsys).Open(path)
	if err != nil {
		return nil, err
	}
	r, err := sized(f)
	var extents []sectionExtent
	if err == nil {
		extents, err = readTable(r)
	}
	if err != nil {
		f.Close()
		var ie *IntegrityError
		if errors.As(err, &ie) {
			ie.Path = path
		}
		return nil, err
	}
	return &ContainerFile{f: f, path: path, extents: extents}, nil
}

// sized returns f as a SizedReaderAt of its current length.
func sized(f vfs.File) (SizedReaderAt, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return io.NewSectionReader(f, 0, st.Size()), nil
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
	data, err := e.read(c.f)
	var ie *IntegrityError
	if errors.As(err, &ie) {
		ie.Path = c.path
	}
	return data, err
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
