//go:build race

package render

// raceEnabled: the race detector makes sync.Pool drop a random quarter
// of what is put back, so pooled allocation counts mean nothing here.
const raceEnabled = true
