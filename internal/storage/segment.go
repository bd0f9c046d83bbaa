package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// File I/O for the two on-disk record kinds. Segments are written to a
// temporary name and renamed into place so readers never observe a partial
// file; the WAL is the only file appended in place, and
// its framing lets replay stop cleanly at a torn tail.

// writeSegment persists snapshot rows, in perm order, as one immutable
// column segment and returns the per-column zone maps written to its
// header.
func writeSegment(path string, snap *Snapshot, perm []int) ([]Zone, error) {
	width := len(snap.Cols)
	n := len(perm)
	zones := make([]Zone, width)
	for c, col := range snap.Cols {
		if n == 0 {
			continue
		}
		z := Zone{Min: col[perm[0]], Max: col[perm[0]]}
		for _, i := range perm[1:] {
			if v := col[i]; v < z.Min {
				z.Min = v
			} else if v > z.Max {
				z.Max = v
			}
		}
		zones[c] = z
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("storage: create segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var scratch [16]byte
	w.WriteString(segMagic)
	binary.LittleEndian.PutUint32(scratch[0:4], uint32(width))
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(n))
	w.Write(scratch[:8])
	for _, z := range zones {
		binary.LittleEndian.PutUint64(scratch[0:8], uint64(z.Min))
		binary.LittleEndian.PutUint64(scratch[8:16], uint64(z.Max))
		w.Write(scratch[:16])
	}
	for _, col := range snap.Cols {
		for _, i := range perm {
			binary.LittleEndian.PutUint64(scratch[:8], uint64(col[i]))
			if _, err := w.Write(scratch[:8]); err != nil {
				break
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("storage: write segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("storage: sync segment: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("storage: close segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("storage: publish segment: %w", err)
	}
	return zones, nil
}

// readSegment loads a segment's zone maps and rows (row-major, in file
// order).
func readSegment(path string, width int) ([]Zone, [][]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return nil, nil, fmt.Errorf("read magic: %w", err)
	}
	if string(hdr[:8]) != segMagic {
		return nil, nil, fmt.Errorf("bad magic %q", hdr[:8])
	}
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return nil, nil, fmt.Errorf("read header: %w", err)
	}
	w := int(binary.LittleEndian.Uint32(hdr[0:4]))
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if w != width {
		return nil, nil, fmt.Errorf("segment width %d, want %d", w, width)
	}
	zones := make([]Zone, width)
	for c := range zones {
		if _, err := io.ReadFull(r, hdr[:16]); err != nil {
			return nil, nil, fmt.Errorf("read zones: %w", err)
		}
		zones[c].Min = int64(binary.LittleEndian.Uint64(hdr[0:8]))
		zones[c].Max = int64(binary.LittleEndian.Uint64(hdr[8:16]))
	}
	flat := make([]int64, width*n)
	buf := make([]byte, 8*1024)
	for off := 0; off < len(flat); {
		want := (len(flat) - off) * 8
		if want > len(buf) {
			want = len(buf)
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, nil, fmt.Errorf("read data: %w", err)
		}
		for b := 0; b < want; b += 8 {
			flat[off] = int64(binary.LittleEndian.Uint64(buf[b : b+8]))
			off++
		}
	}
	rows := make([][]int64, n)
	rowFlat := make([]int64, n*width)
	for i := 0; i < n; i++ {
		row := rowFlat[i*width : (i+1)*width : (i+1)*width]
		for c := 0; c < width; c++ {
			row[c] = flat[c*n+i]
		}
		rows[i] = row
	}
	return zones, rows, nil
}

// writeWALRecord appends one framed batch: [u32 row count][rows × width ×
// int64], all little-endian.
func writeWALRecord(f *os.File, rows [][]int64) error {
	width := len(rows[0])
	buf := make([]byte, 4+len(rows)*width*8)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(rows)))
	off := 4
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[off:off+8], uint64(v))
			off += 8
		}
	}
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("storage: append wal: %w", err)
	}
	return nil
}

// replayWAL feeds every complete record's rows to fn, in order, stopping
// silently at a torn tail. It returns the number of rows replayed.
func replayWAL(path string, width int, fn func(rows [][]int64) error) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: open wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	total := 0
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return total, nil // clean EOF or torn length prefix
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		body := make([]byte, n*width*8)
		if _, err := io.ReadFull(r, body); err != nil {
			return total, nil // torn record body
		}
		rows := make([][]int64, n)
		flat := make([]int64, n*width)
		for i := 0; i < n; i++ {
			row := flat[i*width : (i+1)*width : (i+1)*width]
			for c := 0; c < width; c++ {
				row[c] = int64(binary.LittleEndian.Uint64(body[(i*width+c)*8:]))
			}
			rows[i] = row
		}
		if err := fn(rows); err != nil {
			return total, err
		}
		total += n
	}
}

// walGoodPrefix returns the byte length of the longest prefix of the log
// made of complete records, so a torn tail can be truncated before new
// appends.
func walGoodPrefix(path string, width int) (int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: open wal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("storage: stat wal: %w", err)
	}
	size := info.Size()
	var good int64
	var hdr [4]byte
	for {
		if _, err := f.ReadAt(hdr[:], good); err != nil {
			return good, nil
		}
		rec := 4 + int64(binary.LittleEndian.Uint32(hdr[:]))*int64(width)*8
		if good+rec > size {
			return good, nil
		}
		good += rec
	}
}
