package nccd

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// stepName is a workflow step's name line and its value.
var stepName = regexp.MustCompile(`^\s*- name:\s*(.*)$`)

// TestWorkflowStepNamesParse: no unquoted step name in a workflow holds
// ": " or " #".  A YAML plain scalar cannot: the first starts a mapping
// inside the value, which a strict parser rejects ("mapping values are not
// allowed here"), and the second starts a comment that cuts the name short.
// Such a name must be quoted.
func TestWorkflowStepNamesParse(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no workflow under .github/workflows")
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			m := stepName.FindStringSubmatch(line)
			if m == nil || strings.HasPrefix(m[1], `"`) || strings.HasPrefix(m[1], "'") {
				continue
			}
			if strings.Contains(m[1], ": ") || strings.Contains(m[1], " #") {
				t.Errorf("%s:%d: unquoted step name holds %q or %q: %s", f, i+1, ": ", " #", m[1])
			}
		}
	}
}
