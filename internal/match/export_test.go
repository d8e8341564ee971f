package match

// CachedTypeRows returns how many rows idx has cached, type rows and
// lift rows together, for the external tests.
func CachedTypeRows(idx *ForestIndex) int {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	n := 0
	for _, tr := range idx.rows {
		n++
		for _, l := range tr.lift {
			if l != nil {
				n++
			}
		}
	}
	return n
}
