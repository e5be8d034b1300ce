"""Nearest-centroid classifier over token overlap, for the external-model
file protocol (standard library only):

    python3 token_centroid.py train.csv test.csv out.csv

Every feature cell of a row is lowercased and split into alphanumeric
tokens. A class's centroid is the share of its training rows that hold each
token; a test row goes to the class whose centroid sums highest over the
row's distinct tokens, the first label in sorted order on a tie.
"""
import csv
import re
import sys
from collections import Counter

TARGET = "__target"


def tokens(row: dict) -> set[str]:
    cells = (v for k, v in row.items() if k != TARGET)
    return {t for cell in cells for t in re.findall(r"[a-z0-9]+", cell.lower())}


def main(train_path: str, test_path: str, out_path: str) -> None:
    with open(train_path, newline="", encoding="utf-8") as fh:
        train = list(csv.DictReader(fh))
    with open(test_path, newline="", encoding="utf-8") as fh:
        test = list(csv.DictReader(fh))
    counts: dict[str, Counter] = {}
    sizes: Counter = Counter()
    for row in train:
        label = row[TARGET]
        counts.setdefault(label, Counter()).update(tokens(row))
        sizes[label] += 1
    labels = sorted(counts)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prediction"])
        for row in test:
            seen = tokens(row)
            score = {lab: sum(counts[lab][t] for t in seen) / sizes[lab] for lab in labels}
            writer.writerow([max(labels, key=lambda lab: score[lab])])


if __name__ == "__main__":
    main(*sys.argv[1:4])
