package tree

// Depth returns the depth of the trained tree (0 for a single leaf).
func (t *Tree) Depth() int {
	var depth func(*node) int
	depth = func(n *node) int {
		if n == nil || n.leaf {
			return 0
		}
		l, r := depth(n.left), depth(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return depth(t.root)
}
