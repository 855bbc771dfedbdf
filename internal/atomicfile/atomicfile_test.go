package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	for _, body := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := Write(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("file holds %q, want %q", got, body)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

// TestFailedWriteKeepsPrevious fails the write at its two fallible
// ends — the temporary file cannot be created, and the rename onto the
// target fails — and checks that an error comes back, the previous file
// is byte-identical, and no temporary file is left.
func TestFailedWriteKeepsPrevious(t *testing.T) {
	t.Run("create", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.json")
		prev := []byte("previous state\n")
		if err := os.WriteFile(path, prev, 0o644); err != nil {
			t.Fatal(err)
		}
		// A directory squatting on the temporary name makes the create fail.
		if err := os.Mkdir(path+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, []byte("new state\n"), 0o644); err == nil {
			t.Fatal("write over an unusable temporary path succeeded")
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != string(prev) {
			t.Fatalf("previous file changed: %q, %v", got, err)
		}
	})
	t.Run("rename", func(t *testing.T) {
		dir := t.TempDir()
		// The target is a non-empty directory, so the rename fails after
		// the temporary file was written and synced.
		path := filepath.Join(dir, "state")
		if err := os.MkdirAll(filepath.Join(path, "keep"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Write(path, []byte("new state\n"), 0o644); err == nil {
			t.Fatal("rename onto a non-empty directory succeeded")
		}
		if _, err := os.Stat(filepath.Join(path, "keep")); err != nil {
			t.Fatalf("previous target disturbed: %v", err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temporary file left behind after a failed rename: %v", err)
		}
	})
}
