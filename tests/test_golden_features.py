"""Golden feature views: every artifact of ``features`` on a small input, pinned.

The input is fixed by hand: students that share an entry date, students that
share only the entry month or only the entry semester, retakes, a student
with no takings, advanced-cycle takings and takings past the last prediction
time, viewed at t = 0..7.  Each artifact's sha256 was recorded with the
per-cell feature builder, so any change to a value, to its formatting or to
the manifest shows up here.
"""

import hashlib

from cohortsim.cli import main as cli_main

TIMES = tuple(range(8))

STRIKES = (0.0, 0.12, 0.3, 0.0, 0.05, 0.45, 0.0, 0.2, 0.08, 0.0, 0.6, 0.15)  # semesters 1..12

#: student id -> (entry month, entry semester, cohort year, takings as (course id, semester))
STUDENTS = {
    "s01": (24, 1, 2004, (("am1", 1), ("fis1", 1), ("am2", 2), ("am2", 3), ("ele1", 5),
                          ("mec1", 8))),
    "s02": (24, 1, 2004, ()),
    "s03": (30, 2, 2004, (("alg1", 2), ("alg1", 3), ("iin1", 2), ("ter1", 6))),
    "s04": (30, 2, 2004, (("qui1", 3),)),
    "s05": (36, 3, 2005, (("am1", 3), ("am1", 4), ("am1", 5), ("fis2", 4))),
    "s06": (24, 2, 2004, (("am1", 2), ("ele1", 6), ("mat1", 6))),
    "s07": (30, 1, 2004, (("fis1", 1), ("fis1", 2))),
    "s08": (48, 5, 2006, (("am1", 5), ("mec1", 8), ("ele1", 9), ("ctr1", 11), ("ter1", 10))),
    "s09": (24, 1, 2004, (("alg1", 1), ("am1", 1), ("fis1", 1), ("iin1", 1), ("am2", 2),
                          ("fis2", 2), ("qui1", 2), ("rep1", 2), ("am3", 3), ("fis3", 3),
                          ("am3", 4), ("ele1", 5), ("mat1", 5), ("ter1", 5))),
}

#: sha256 of every file written by ``features --times 0,...,7`` on the input above.
FEATURE_RUN_FILES = {
    "availability_mask_t0.csv": "9ce4536bad8c47a66ada6afac58106e5c2e93822f3822a2e7bbf0f46a75bfdfd",
    "availability_mask_t1.csv": "33d1291a049cf175dd1a3828ef360feadb3cd6895e211d455f63521a433e81a5",
    "availability_mask_t2.csv": "6b503ea82858bf7c7008a29311b0e696b43bf29c6aecf7af3774da17228af55d",
    "availability_mask_t3.csv": "fb9caed4d97c60706af6be0094e24796af870ed508a80e3fef3418ff5fe8aaba",
    "availability_mask_t4.csv": "fb9caed4d97c60706af6be0094e24796af870ed508a80e3fef3418ff5fe8aaba",
    "availability_mask_t5.csv": "fb9caed4d97c60706af6be0094e24796af870ed508a80e3fef3418ff5fe8aaba",
    "availability_mask_t6.csv": "fb9caed4d97c60706af6be0094e24796af870ed508a80e3fef3418ff5fe8aaba",
    "availability_mask_t7.csv": "fb9caed4d97c60706af6be0094e24796af870ed508a80e3fef3418ff5fe8aaba",
    "feature_matrix_t0.csv": "219ce1cc506901e03816394309ccb3f633cbf8601f3b8eaa75fccf1c5082a306",
    "feature_matrix_t1.csv": "e797659c1fcf3494ebc7a7673e93f181b59ed66eb3ebac919b625685858ea346",
    "feature_matrix_t2.csv": "44150a559823aca208c317fbc37fa98d81abda4ce6aea81bea4d5d5898363918",
    "feature_matrix_t3.csv": "67c48d03f34ff52fe38f0d0de76af634ff77d3e811c7291255ca74f5345f59f8",
    "feature_matrix_t4.csv": "25dffb8bf3cc04e43217f8d7e91d3c7d82717d90004083e14b3b0f63cf355a93",
    "feature_matrix_t5.csv": "359d6e4b326544c844e4ec9476c26a20612cf8bd47aed8f581634b4c70b50a45",
    "feature_matrix_t6.csv": "b3b9212faf3af75c7896273d2d4fdb63d35696693251a1ebfed146dd9dbf1ac6",
    "feature_matrix_t7.csv": "c4559c6be72bdcbf18987f2ab4379ba272ae4cd51f95ae12449299f071601cde",
    "manifest.json": "855876e876fa8f47daff40d2c13f99f058f68b4b1010844a41de5beb255b2ee7",
}


def write_inputs(directory):
    (directory / "inflation.csv").write_text("month,inflation\n" + "".join(
        f"{m},{1.0 + 0.37 * ((m * 7) % 11) / 10:.4f}\n" for m in range(96)))
    (directory / "strikes.csv").write_text("semester,strike_intensity\n" + "".join(
        f"{s},{v}\n" for s, v in enumerate(STRIKES, start=1)))
    (directory / "students.csv").write_text(
        "student_id,entry_month,entry_semester,cohort_year\n" + "".join(
            f"{sid},{month},{semester},{year}\n"
            for sid, (month, semester, year, _) in STUDENTS.items()))
    (directory / "takings.csv").write_text("student_id,course_id,semester\n" + "".join(
        f"{sid},{course},{semester}\n"
        for sid, (*_, takings) in STUDENTS.items() for course, semester in takings))


def test_feature_run_is_pinned(tmp_path, monkeypatch, capsys):
    # relative paths keep the manifest's recorded input paths independent of tmp_path
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    code = cli_main(["features", "--inflation-csv", "inflation.csv",
                     "--strikes-csv", "strikes.csv", "--students-csv", "students.csv",
                     "--takings-csv", "takings.csv",
                     "--times", ",".join(map(str, TIMES)), "--out", "out"])
    assert code == 0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in (tmp_path / "out").iterdir()}
    assert files == FEATURE_RUN_FILES
