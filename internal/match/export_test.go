package match

// CachedTypeRows returns how many per-type rows idx has cached, for the
// external tests.
func CachedTypeRows(idx *ForestIndex) int {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return len(idx.bits)
}
