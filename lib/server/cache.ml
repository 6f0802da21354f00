include Parallel.Cache (* the LRU table lives in parallel, below every user *)
