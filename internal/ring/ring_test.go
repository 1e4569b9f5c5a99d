package ring

import "testing"

func TestQueueFIFOAcrossGrowthAndWrap(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			*q.Push() = next
			next++
		}
		for i := 0; i < round%5+1 && q.Len() > 0; i++ {
			if got := *q.Peek(); got != want {
				t.Fatalf("Peek = %d, want %d", got, want)
			}
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d of %d", want, next)
	}
}

func TestQueuePopDropsReference(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 10; i++ {
		*q.Push() = new(int)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds its element", i)
		}
	}
}
