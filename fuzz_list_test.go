package muml_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzSmokeListsEveryTarget requires the Makefile's fuzz-smoke recipe
// to fuzz every fuzz target of the module, one line per target in the
// target's package, and each line to pass -run '^$' so that it runs no
// tests first. CI's check job and the nightly fuzz job run exactly that
// recipe, so a target missing from it is fuzzed nowhere, and a line whose
// target is gone fuzzes nothing.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := regexp.MustCompile(`(?m)^fuzz-smoke:\n((?:\t.*\n)+)`).FindSubmatch(makefile)
	if recipe == nil {
		t.Fatal("the Makefile has no fuzz-smoke recipe")
	}
	line := regexp.MustCompile(`^\t\$\(GO\) test (\./\S+) -run '\^\$\$' -fuzz '\^(Fuzz\w+)\$\$' -fuzztime \$\(FUZZTIME\)$`)
	listed := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSuffix(string(recipe[1]), "\n"), "\n") {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("fuzz-smoke line %q is not `$(GO) test ./<pkg> -run '^$$' -fuzz '^<target>$$' -fuzztime $(FUZZTIME)`", l)
			continue
		}
		listed[m[1]+" "+m[2]] = true
	}

	target := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	found := make(map[string]bool)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// Hidden and testdata directories hold no package, and a
			// directory with its own go.mod is another module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range target.FindAllSubmatch(src, -1) {
			key := "./" + filepath.ToSlash(filepath.Dir(path)) + " " + string(m[1])
			found[key] = true
			if !listed[key] {
				t.Errorf("%s: %s is not in the fuzz-smoke recipe", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range listed {
		if !found[key] {
			t.Errorf("fuzz-smoke fuzzes %s, which is no fuzz target", key)
		}
	}
}
