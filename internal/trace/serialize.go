package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graphlocality/internal/store"
)

// Trace files: traces can be written once and replayed against many
// cache configurations (the tooling side of the paper's two-phase method
// — log once, simulate under different replacement policies or
// geometries without regenerating the traversal).
//
// A trace file is one GLAS container (internal/store framing: CRC-guarded
// section table, per-section CRC32C) with one section per thread log, in
// log order, named "thread.<id>". A section holds the thread's packed
// 24-byte access records, little-endian: addr u64, vertex u32, dest u32,
// kind u8, write u8, 6 zero pad bytes. A bit flip or torn tail in an
// archived trace is caught by the container before a record is decoded.
// The container caps a section at 1 GiB, so one thread log holds at most
// 44 739 242 accesses.

const (
	threadSectionPrefix = "thread."
	recordBytes         = 24
)

// WriteLogs serializes thread logs to w as a trace container.
func WriteLogs(logs []ThreadLog, w io.Writer) error {
	sections := make([]store.Section, len(logs))
	for i, lg := range logs {
		data := make([]byte, recordBytes*len(lg.Accesses))
		for j, a := range lg.Accesses {
			rec := data[j*recordBytes:]
			binary.LittleEndian.PutUint64(rec[0:], a.Addr)
			binary.LittleEndian.PutUint32(rec[8:], a.Vertex)
			binary.LittleEndian.PutUint32(rec[12:], a.Dest)
			rec[16] = uint8(a.Kind)
			if a.Write {
				rec[17] = 1
			}
		}
		sections[i] = store.Section{Name: threadSectionPrefix + strconv.Itoa(lg.Thread), Data: data}
	}
	return store.WriteContainer(w, sections)
}

// ReadLogs deserializes thread logs written by WriteLogs from a byte
// source of known size (a *bytes.Reader, or a file wrapped as
// io.NewSectionReader(f, 0, size)). Every section is CRC-verified by the
// container before its records are decoded; a section that is not a
// well-formed thread log is a typed *store.IntegrityError like any
// container failure.
func ReadLogs(r store.SizedReaderAt) ([]ThreadLog, error) {
	sections, err := store.ReadContainer(r)
	if err != nil {
		return nil, err
	}
	logs := make([]ThreadLog, len(sections))
	for i, s := range sections {
		id, err := strconv.Atoi(strings.TrimPrefix(s.Name, threadSectionPrefix))
		if err != nil || s.Name != threadSectionPrefix+strconv.Itoa(id) {
			return nil, &store.IntegrityError{Reason: fmt.Sprintf("trace: section %q is not a thread log", s.Name)}
		}
		if len(s.Data)%recordBytes != 0 {
			return nil, &store.IntegrityError{Reason: fmt.Sprintf(
				"trace: thread %d: %d record bytes, not a multiple of %d", id, len(s.Data), recordBytes)}
		}
		logs[i].Thread = id
		if len(s.Data) == 0 {
			continue
		}
		logs[i].Accesses = make([]Access, len(s.Data)/recordBytes)
		for j := range logs[i].Accesses {
			rec := s.Data[j*recordBytes:]
			logs[i].Accesses[j] = Access{
				Addr:   binary.LittleEndian.Uint64(rec[0:]),
				Vertex: binary.LittleEndian.Uint32(rec[8:]),
				Dest:   binary.LittleEndian.Uint32(rec[12:]),
				Kind:   Kind(rec[16]),
				Write:  rec[17] != 0,
			}
		}
	}
	return logs, nil
}
