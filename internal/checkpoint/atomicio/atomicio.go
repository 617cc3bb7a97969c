// Package atomicio writes durable artifacts atomically.
//
// Every file the pipeline emits for later consumption — FlowTuple files,
// scan results, trace JSONL, manifests, checkpoints — goes through WriteFile
// or WriteGroup: the bytes land in a staging file next to the destination
// (".NAME.tmp"), are fsynced, and are renamed over the final path, followed
// by a directory sync so the rename itself is durable. A process killed at
// any instruction leaves, at each path, either the complete old file or the
// complete new file, never a torn one.
//
// WriteGroup is the same protocol for several files of one directory at
// once: the files are produced, staged and fsynced concurrently, renamed one
// after another, and the directory is synced once after the last rename.
// When it returns nil every file and every rename is durable — the same
// state a loop of WriteFile calls reaches, through overlapped file syncs and
// one directory sync instead of a pair per file. Until it returns, nothing
// may rely on any of the group's files: a kill between two renames leaves
// some paths new and the rest old (each still complete), and the group is
// not all-or-nothing. Callers therefore record a group's files (digests in a
// checkpoint, entries in a manifest) only after it returns, and redo the
// whole group when they resume.
//
// Staging names are deterministic, so a path has one writer at a time, and a
// run that resumes after a kill in the staging window overwrites the files
// the killed run orphaned instead of leaving them behind. On any error
// return every staging file the call created is removed.
package atomicio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"openhire/internal/checkpoint/crashpoint"
)

// groupInFlight bounds how many files of one group are open, being produced
// and waiting on their fsync at once: enough to overlap the syncs of a
// cycle's hour files, few enough to stay far below any descriptor limit.
const groupInFlight = 8

// writers recycles the staging buffers: a commit of a few hundred bytes
// would otherwise allocate one of these whole.
var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<16) }}

// WriteFile atomically replaces path with the bytes produced by write.
// The writer passed to write is buffered; write need not flush it.
func WriteFile(path string, write func(w io.Writer) error) error {
	return WriteGroup(filepath.Dir(path), []string{filepath.Base(path)},
		func(_ int, w io.Writer) error { return write(w) })
}

// WriteFileBytes atomically replaces path with data.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteGroup atomically replaces dir/names[i] with the bytes write(i, w)
// produces, for every i, and returns once the whole group is durable (see
// the package comment for what holds before that). write is called from
// several goroutines at once, each call with a different i; the writer it
// receives is buffered and need not be flushed. A target that exists and
// is not a regular file (a directory, a device such as /dev/null, a FIFO)
// fails the whole group before anything is staged: renaming over it would
// replace it.
func WriteGroup(dir string, names []string, write func(i int, w io.Writer) error) (err error) {
	for _, name := range names {
		path := filepath.Join(dir, name)
		if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
			return fmt.Errorf("atomicio: %s: not a regular file (%v)", path, fi.Mode().Type())
		}
	}
	staged := make([]string, len(names))
	for i, name := range names {
		staged[i] = filepath.Join(dir, "."+name+".tmp")
	}
	defer func() {
		if err != nil {
			for _, tmp := range staged {
				os.Remove(tmp) // renamed or never created: nothing to remove
			}
		}
	}()

	// Worker k stages files k, k+workers, …: a group's files are of a size,
	// so striding keeps every worker busy without a queue.
	errs := make([]error, len(names))
	workers := min(groupInFlight, len(names))
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bw := writers.Get().(*bufio.Writer)
			for i := k; i < len(names); i += workers {
				errs[i] = stage(staged[i], bw, func(w io.Writer) error { return write(i, w) })
			}
			bw.Reset(nil)
			writers.Put(bw)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("atomicio: %s: %w", filepath.Join(dir, names[i]), err)
		}
	}

	for i, name := range names {
		crashpoint.Here(crashpoint.SiteAtomicStaged)
		if err := os.Rename(staged[i], filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("atomicio: publish %s: %w", filepath.Join(dir, name), err)
		}
	}
	return syncDir(dir)
}

// stage creates (or truncates) the staging file tmp, fills it through bw and
// makes its bytes durable.
func stage(tmp string, bw *bufio.Writer, write func(w io.Writer) error) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("stage: %w", err)
	}
	bw.Reset(f)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("write: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// syncDir makes the preceding renames in dir durable. A filesystem that
// cannot fsync a directory answers EINVAL or ENOTSUP, which is not a
// failure; any other error, opening the directory included, is.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicio: sync directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("atomicio: sync directory %s: %w", dir, err)
	}
	return nil
}
