#!/usr/bin/env python3
"""Compare what the four built-in text embedders produce for the same corpus."""
import numpy as np

from tabtext import HashedNgram, TfIdf, TopicFactorization, WordVecAvg
from tabtext.breaklab import toy_vector_file

TRAIN = [
    "crisp pale ale with citrus hops",
    "roasty imperial stout aged on oak",
    "hazy ipa bursting with mango",
    "easy drinking lager for summer",
]
TEST = ["citrus ipa with oak notes", "completely unseen vocabulary here"]


def show(name, matrix):
    matrix = np.asarray(matrix)  # tf-idf and hashed blocks are sparse (CSR)
    with np.printoptions(precision=3, suppress=True, threshold=12):
        print(f"{name:28s} dim={matrix.shape[1]:5d}  row0[:6]={matrix[0, :6]}")


def main():
    tfidf = TfIdf().fit(TRAIN)
    show("tf-idf (word 1-2 grams)", tfidf.transform(TEST))
    print(f"{'':28s} unseen-vocab doc norm = {np.linalg.norm(tfidf.transform(TEST).toarray()[1]):.1f}"
          " (out-of-vocabulary collapses to zero)")

    hashed = HashedNgram(buckets=64)
    show("hashed n-grams (64 buckets)", hashed.transform(TEST))

    wordvec = WordVecAvg(str(toy_vector_file())).fit(TRAIN)
    show("word-vector average", wordvec.transform(["positive breeze", "negative storm"]))

    topic = TopicFactorization(n_components=5, iters=50).fit(TRAIN)
    show("topic factorization (k=5)", topic.transform(TEST))


if __name__ == "__main__":
    main()
