// Package atomicfile replaces a file's contents so that a crash at any
// moment leaves either the old file or the complete new one on disk,
// never a truncated mix. Checkpoint writers (pondserve's state file,
// pondfleet's -checkpoint snapshot) share it.
package atomicfile

import "os"

// Write writes data to path+".tmp", flushes it to stable storage, and
// renames it over path. On any failure the temporary file is removed and
// path is left as it was.
func Write(path string, data []byte, perm os.FileMode) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = f.Close() // already closed on the rename path; the first error wins
			_ = os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return err
	}
	// Without the sync a crash just after the rename can leave the new
	// name pointing at data the kernel never wrote back.
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
