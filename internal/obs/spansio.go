package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// Raw span persistence.  Each process of a multi-process run dumps its
// tracer verbatim, attributes included, and the launcher stitches the
// per-rank files back together; both the Chrome export (chrome.go, a lossy
// projection for a human viewer) and the cross-rank analyzer read the
// stitched spans.  The format is one JSON document, spans in ring order
// (per-lane oldest-first), with the drop count preserved so the analyzer
// can refuse to claim completeness over a truncated trace.

// SpanFile is the on-disk form of one process's trace.
type SpanFile struct {
	Dropped int64  `json:"dropped"`
	Spans   []Span `json:"spans"`
}

// WriteSpansFile writes the tracer's recorded spans and drop count to path.
func WriteSpansFile(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(SpanFile{Dropped: t.Dropped(), Spans: t.Spans()}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSpansFile loads a span file written by WriteSpansFile.
func ReadSpansFile(path string) (SpanFile, error) {
	var sf SpanFile
	b, err := os.ReadFile(path)
	if err != nil {
		return sf, err
	}
	if err := json.Unmarshal(b, &sf); err != nil {
		return sf, fmt.Errorf("obs: %s: %w", path, err)
	}
	return sf, nil
}
