package cluster

// TreeFanout splits an ordered broadcast destination list into the binomial
// tree rooted at the sender: children are the sender's direct recipients —
// ⌈log₂(len(dsts)+1)⌉ of them — and subtrees[i] is the slice of dsts that
// children[i] must relay onward (possibly empty). Every destination appears
// exactly once across children and subtrees, and applying TreeFanout
// recursively to each subtree reproduces the classic binomial broadcast:
// with virtual ranks 0..k (sender = 0), rank 2^j receives from the sender
// and covers ranks [2^j, min(2^{j+1}, k+1)). The subtree slices alias dsts.
func TreeFanout(dsts []int) (children []int, subtrees [][]int) {
	for step := 1; step <= len(dsts); step <<= 1 {
		child, end := TreeChild(len(dsts), step)
		children = append(children, dsts[child])
		subtrees = append(subtrees, dsts[child+1:end])
	}
	return children, subtrees
}

// TreeChild is the tree's shape by position, for a caller that holds its
// destinations in place and wants no slices built: of k ordered destinations,
// the sender's recipient at doubling step 1, 2, 4, … ≤ k is the one at index
// child, and it relays to the destinations at [child+1, end).
func TreeChild(k, step int) (child, end int) {
	end = 2*step - 1
	if end > k {
		end = k
	}
	return step - 1, end
}
