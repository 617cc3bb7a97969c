package atomicio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"openhire/internal/checkpoint/crashpoint"
)

// groupNames are the members of the groups the tests write.
func groupNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("part%02d.csv", i)
	}
	return names
}

// content is what generation gen of member i holds: long enough to pass
// through the staging buffer more than once.
func content(gen string, i int) string {
	return strings.Repeat(fmt.Sprintf("%s member %d\n", gen, i), 6000)
}

// writeGen writes generation gen of every member as one group.
func writeGen(dir string, names []string, gen string) error {
	return WriteGroup(dir, names, func(i int, w io.Writer) error {
		_, err := io.WriteString(w, content(gen, i))
		return err
	})
}

// checkGen asserts member i holds exactly generation gen.
func checkGen(t *testing.T, dir, name, gen string, i int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != content(gen, i) {
		t.Errorf("%s: not the complete %q generation (%d bytes, starts %.20q)", name, gen, len(data), data)
	}
}

// checkNoStaging asserts dir holds no hidden staging file.
func checkNoStaging(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("staging file %s left behind", e.Name())
		}
	}
}

func TestWriteFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	for _, gen := range []string{"old", "new"} {
		if err := WriteFileBytes(path, []byte(content(gen, 0))); err != nil {
			t.Fatal(err)
		}
		checkGen(t, dir, "artifact.json", gen, 0)
	}
	checkNoStaging(t, dir)

	// A failing producer leaves the published file alone and no staging file,
	// however much it wrote before failing.
	boom := errors.New("producer failed")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, content("torn", 0)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the producer's error", err)
	}
	checkGen(t, dir, "artifact.json", "new", 0)
	checkNoStaging(t, dir)

	// So does a staging file that cannot be created.
	if err := WriteFileBytes(filepath.Join(dir, "missing", "artifact.json"), []byte("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}

	// An orphan of a killed writer is overwritten, not accumulated.
	if err := os.WriteFile(filepath.Join(dir, ".artifact.json.tmp"), []byte("orphan of a killed run"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileBytes(path, []byte(content("newer", 0))); err != nil {
		t.Fatal(err)
	}
	checkGen(t, dir, "artifact.json", "newer", 0)
	checkNoStaging(t, dir)
}

// TestWriteGroupFailureLeavesOldFiles fails one member of a group — in its
// producer, then at staging — and asserts every path still holds the complete
// old file and every staging file of the group is gone.
func TestWriteGroupFailureLeavesOldFiles(t *testing.T) {
	names := groupNames(24)
	boom := errors.New("producer failed")
	failures := map[string]func(dir string) error{
		"producer": func(dir string) error {
			return WriteGroup(dir, names, func(i int, w io.Writer) error {
				if _, err := io.WriteString(w, content("new", i)); err != nil {
					return err
				}
				if i == 17 {
					return boom
				}
				return nil
			})
		},
		"stage": func(dir string) error {
			// Member 5's staging file cannot be created: its directory is missing.
			bad := append([]string{}, names...)
			bad[5] = filepath.Join("no-such-subdir", names[5])
			return WriteGroup(dir, bad, func(i int, w io.Writer) error {
				_, err := io.WriteString(w, content("new", i))
				return err
			})
		},
	}
	for label, fail := range failures {
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeGen(dir, names, "old"); err != nil {
				t.Fatal(err)
			}
			err := fail(dir)
			if err == nil {
				t.Fatal("group with a failing member succeeded")
			}
			if label == "producer" && !errors.Is(err, boom) {
				t.Errorf("err = %v, want the producer's error", err)
			}
			for i, name := range names {
				checkGen(t, dir, name, "old", i)
			}
			checkNoStaging(t, dir)
		})
	}
}

// TestWriteGroupCompletionOrder finishes the members' producers in reverse
// index order — member i returns only after member i+1 has, within each
// batch of in-flight files — and asserts every path holds its own member's
// bytes: what lands where depends on the index, never on who finished first.
// (It would hang, not fail, if fewer than groupInFlight members ran at once.)
func TestWriteGroupCompletionOrder(t *testing.T) {
	dir := t.TempDir()
	names := groupNames(3 * groupInFlight)
	done := make([]chan struct{}, len(names))
	for i := range done {
		done[i] = make(chan struct{})
	}
	err := WriteGroup(dir, names, func(i int, w io.Writer) error {
		defer close(done[i])
		// The last member of a batch has nobody to wait for: its successor
		// belongs to the next batch, which starts only as workers free up.
		if (i+1)%groupInFlight != 0 {
			<-done[i+1]
		}
		_, err := io.WriteString(w, content("new", i))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		checkGen(t, dir, name, "new", i)
	}
	checkNoStaging(t, dir)
}

// groupHelperEnv carries the directory to the child process of
// TestWriteGroupKilledBetweenRenames.
const groupHelperEnv = "ATOMICIO_GROUP_HELPER_DIR"

// TestWriteGroupKilledBetweenRenames stops a child process right before the
// k-th rename of a group that replaces an older generation (atomic.staged
// fires once per member, before its rename) and asserts what the kill leaves:
// every path the complete old or the complete new file, new exactly for the
// members renamed before the kill. The writer that comes back then replaces
// the whole group and consumes the killed writer's staging files.
func TestWriteGroupKilledBetweenRenames(t *testing.T) {
	const members = 24
	names := groupNames(members)
	if dir := os.Getenv(groupHelperEnv); dir != "" {
		if err := writeGen(dir, names, "new"); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, k := range []int{1, 2, 13, members} {
		t.Run(fmt.Sprintf("staged@%d", k), func(t *testing.T) {
			dir := t.TempDir()
			if err := writeGen(dir, names, "old"); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], "-test.run=^TestWriteGroupKilledBetweenRenames$")
			cmd.Env = append(os.Environ(), groupHelperEnv+"="+dir,
				fmt.Sprintf("%s=%s@%d", crashpoint.EnvVar, crashpoint.SiteAtomicStaged, k))
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != crashpoint.ExitCode {
				t.Fatalf("child: err %v, want exit %d\n%s", err, crashpoint.ExitCode, out)
			}
			for i, name := range names {
				gen := "old"
				if i < k-1 {
					gen = "new"
				}
				checkGen(t, dir, name, gen, i)
			}
			// All members were staged before the first rename; the ones not
			// yet renamed are what the kill orphans.
			orphans, err := filepath.Glob(filepath.Join(dir, ".*.tmp"))
			if err != nil {
				t.Fatal(err)
			}
			if len(orphans) != members-(k-1) {
				t.Errorf("kill left %d staging files, want %d", len(orphans), members-(k-1))
			}
			if err := writeGen(dir, names, "new"); err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				checkGen(t, dir, name, "new", i)
			}
			checkNoStaging(t, dir)
		})
	}
}
