"""Seeded synthetic activity-log generator.

Produces per-student logs whose session structure matches the corpus
statistics this project is calibrated against: 48.3% of sessions are
pure homework, 25.5% partly homework, 26.2% free, and the session-length
histogram spikes at multiples of five (question groups and homework
assignments come in fives).

Each student carries a persistent behavioural profile: a preferred
homework assignment length, a mean free-session length multiplier, a
time-of-day preference, and an inter-session rhythm.  The profile is
only observable through the student's history; by design that should let
a history-carrying model outperform a per-session one on this data, but
no run has shown it yet (ROADMAP item 3).
Session boundaries respect the gap rule (``sessions.SESSION_GAP_SECONDS``)
by construction, so segmentation recovers them exactly.

``_generate_student`` makes a student's log in one pass over the sessions,
and the lesson/topic walk lives in it as two ints.  Its draws from the
student's generator come in a fixed order, so the bytes of ``generate``
depend only on the config (``tests/test_cli.py`` pins them).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from eosnet.ingest import DEFAULT_UTC_OFFSET_MINUTES, ActionKind, RawAction, StudentLog
from eosnet.sessions import SESSION_GAP_SECONDS, HomeworkClass, segment, session_table

_PURE, _FREE = 0, 2  # of the drawn session types 0, 1, 2: pure, partly, free homework


@dataclass(slots=True)
class GenConfig:
    n_students: int = 2000
    seed: int = 0
    # sessions per student: lognormal, rounded, at least 1
    sessions_log_mean: float = math.log(5.5)
    sessions_log_sigma: float = 0.45
    # session-type mix
    homework_session_fraction: float = 0.483
    partly_fraction: float = 0.255
    # homework assignments come in multiples of five
    homework_length_choices: tuple[int, ...] = (5, 10, 15, 20, 25)
    homework_length_weights: tuple[float, ...] = (0.45, 0.30, 0.15, 0.07, 0.03)
    homework_sticky: float = 0.9   # chance a session reuses the student's usual length
    profile_link: float = 0.6      # chance the usual length tracks the length profile
    # free sessions: geometric, mean scaled by the student's profile
    free_length_mean: float = 3.0
    length_multiplier_sigma: float = 0.6
    # timing
    tod_alpha: tuple[float, float, float] = (2.0, 1.5, 1.5)
    tod_strength: float = 0.7
    intersession_median_hours: float = 26.0
    intersession_log_sigma: float = 0.9
    rhythm_sigma: float = 0.35
    within_gap_median_seconds: float = 45.0
    within_gap_log_sigma: float = 0.8
    # content process
    lesson_change_prob: float = 0.18
    topic_change_prob: float = 0.35
    n_topics: int = 12
    lessons_per_topic: int = 5
    question_fraction_homework: float = 0.9
    question_fraction_free: float = 0.6
    fillout_share: float = 0.5
    accuracy_range: tuple[float, float] = (0.55, 0.95)
    start_epoch: int = 1_598_947_200  # 2020-09-01 00:00:00 UTC
    utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES

    def __post_init__(self):
        if self.n_students < 1:
            raise ValueError("n_students must be >= 1")
        if not 0.0 <= self.homework_session_fraction <= 1.0:
            raise ValueError("homework_session_fraction must be in [0, 1]")
        if not 0.0 <= self.partly_fraction <= 1.0:
            raise ValueError("partly_fraction must be in [0, 1]")
        if self.homework_session_fraction + self.partly_fraction > 1.0:
            raise ValueError("homework + partly fractions exceed 1")
        if len(self.homework_length_choices) != len(self.homework_length_weights):
            raise ValueError("length choices and weights differ in size")
        if self.free_length_mean < 1.0:
            raise ValueError("free_length_mean must be >= 1")


@dataclass(slots=True)
class StudentProfile:
    """Latent per-student behaviour, fixed for the student's lifetime."""

    length_multiplier: float
    usual_homework_length: int
    free_length_mean: float
    tod_weights: np.ndarray
    rhythm: float
    accuracy: float


# local-time hour ranges of the three day buckets; the last wraps past
# midnight so its draws may exceed 24
_BUCKET_HOURS = ((8.0, 12.0), (12.0, 15.0), (15.0, 32.0))


def _weighted_quantile(choices, weights, u: float) -> int:
    """The first choice whose cumulative weight share reaches ``u``; the
    last choice when rounding leaves every share below it."""
    cumulative = np.cumsum(np.asarray(weights) / float(sum(weights)))
    index = int(np.searchsorted(cumulative, u))
    return choices[min(index, len(choices) - 1)]


def _weighted_length(rng: np.random.Generator, cfg: GenConfig) -> int:
    """A homework length drawn with the configured weights."""
    weights = np.asarray(cfg.homework_length_weights, dtype=float)
    return int(rng.choice(cfg.homework_length_choices, p=weights / weights.sum()))


def _draw_profile(rng: np.random.Generator, cfg: GenConfig) -> StudentProfile:
    sigma = cfg.length_multiplier_sigma
    multiplier = float(rng.lognormal(-sigma * sigma / 2.0, sigma)) if sigma > 0 else 1.0
    # usual homework length: quantile-linked to the multiplier with
    # probability profile_link, plain weighted draw otherwise; either way
    # the marginal distribution equals the configured weights
    if sigma > 0 and rng.random() < cfg.profile_link:
        u = 0.5 * (1.0 + math.erf((math.log(multiplier) + sigma * sigma / 2.0)
                                  / (sigma * math.sqrt(2.0))))
        usual = _weighted_quantile(cfg.homework_length_choices,
                                   cfg.homework_length_weights, u)
    else:
        usual = _weighted_length(rng, cfg)
    free_mean = min(max(cfg.free_length_mean * multiplier, 1.05), 40.0)
    return StudentProfile(
        length_multiplier=multiplier,
        usual_homework_length=usual,
        free_length_mean=free_mean,
        tod_weights=rng.dirichlet(cfg.tod_alpha),
        rhythm=float(rng.lognormal(-cfg.rhythm_sigma ** 2 / 2.0, cfg.rhythm_sigma)),
        accuracy=float(rng.uniform(*cfg.accuracy_range)),
    )


def _session_start(rng: np.random.Generator, cfg: GenConfig,
                   profile: StudentProfile, prev_end: Optional[int]) -> int:
    """Next session start: lognormal gap scaled by the student's rhythm,
    optionally re-anchored into the student's preferred day bucket;
    always strictly more than ``SESSION_GAP_SECONDS`` after the previous
    action."""
    offset = 60 * cfg.utc_offset_minutes
    if prev_end is None:
        day = cfg.start_epoch + int(rng.integers(0, 30)) * 86400
        floor_ts = None
    else:
        gap = rng.lognormal(math.log(cfg.intersession_median_hours * 3600.0
                                     * profile.rhythm),
                            cfg.intersession_log_sigma)
        start = prev_end + max(SESSION_GAP_SECONDS + 1, int(gap))
        if rng.random() >= cfg.tod_strength:
            return start
        day = ((start + offset) // 86400) * 86400 - offset
        floor_ts = prev_end + SESSION_GAP_SECONDS
    bucket = int(rng.choice(3, p=profile.tod_weights))
    lo, hi = _BUCKET_HOURS[bucket]
    start = day + int(rng.uniform(lo, hi) * 3600.0)
    if floor_ts is not None:
        while start <= floor_ts:
            start += 86400
    return start


def _generate_student(student_id: str, rng: np.random.Generator,
                      cfg: GenConfig) -> StudentLog:
    """One student's log: the profile, then each session's type, length,
    start, gaps and six per-action uniforms, in that draw order.  The
    lesson/topic walk starts at two drawn ints and steps at every action
    but the student's first; lessons nest inside topics, so a topic change
    always implies a lesson change."""
    profile = _draw_profile(rng, cfg)
    n_sessions = max(1, round(float(rng.lognormal(cfg.sessions_log_mean,
                                                  cfg.sessions_log_sigma))))
    pure_p, partly_p = cfg.homework_session_fraction, cfg.partly_fraction
    types = rng.choice(3, size=n_sessions, p=[pure_p, partly_p, 1.0 - pure_p - partly_p])
    n_topics, n_lessons = cfg.n_topics, cfg.lessons_per_topic
    topic, lesson = int(rng.integers(n_topics)), int(rng.integers(n_lessons))

    actions: list[RawAction] = []
    prev_end: Optional[int] = None
    for kind in types:
        hw_len = free_len = 0
        if kind != _FREE:
            hw_len = (profile.usual_homework_length if rng.random() < cfg.homework_sticky
                      else _weighted_length(rng, cfg))
        if kind != _PURE:
            free_len = int(rng.geometric(1.0 / profile.free_length_mean))
        length = hw_len + free_len

        start = _session_start(rng, cfg, profile, prev_end)
        gaps = np.clip(rng.lognormal(math.log(cfg.within_gap_median_seconds),
                                     cfg.within_gap_log_sigma,
                                     size=max(length - 1, 0)).astype(np.int64), 2, 890)
        timestamps = (start + np.concatenate([[0], np.cumsum(gaps)])).tolist()
        # lesson, topic, pick, kind, fillout and correct uniforms
        draws = [rng.random(length).tolist() for _ in range(6)]

        for position, (timestamp, lesson_u, topic_u, pick_u, kind_u, fillout_u,
                       correct_u) in enumerate(zip(timestamps, *draws)):
            if actions and lesson_u < cfg.lesson_change_prob:
                if topic_u < cfg.topic_change_prob and n_topics > 1:
                    topic = (topic + 1 + int(pick_u * (n_topics - 1))) % n_topics
                    lesson = int(pick_u * n_lessons) % n_lessons
                elif n_lessons > 1:
                    lesson = (lesson + 1 + int(pick_u * (n_lessons - 1))) % n_lessons
            homework = position < hw_len
            if kind_u < (cfg.question_fraction_homework if homework
                         else cfg.question_fraction_free):
                action_kind = (ActionKind.FILL_OUT_QUESTION if fillout_u < cfg.fillout_share
                               else ActionKind.MULTIPLE_CHOICE_QUESTION)
                correct = correct_u < profile.accuracy
            else:
                action_kind, correct = ActionKind.MATERIAL, None
            actions.append(RawAction(student_id, timestamp, action_kind,
                                     f"L{topic * n_lessons + lesson}", f"T{topic}",
                                     correct, homework))
        prev_end = timestamps[-1]
    return StudentLog(student_id=student_id, actions=actions)


def generate(cfg: GenConfig) -> list[StudentLog]:
    """Generate all students; byte-identical for identical configs.

    Every student draws from an independent spawned substream, so the
    generation is order-independent and parallelizable.
    """
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.n_students)
    return [
        _generate_student(f"s{index:06d}", np.random.default_rng(children[index]), cfg)
        for index in range(cfg.n_students)
    ]


@dataclass(slots=True)
class LogSummary:
    n_students: int
    n_sessions: int
    n_actions: int
    homework_fractions: dict  # HomeworkClass -> float, 0.0 without sessions
    session_length_hist: Counter
    sessions_per_student_hist: Counter

    def lines(self) -> list[str]:
        return [
            f"n_students,{self.n_students}",
            f"n_sessions,{self.n_sessions}",
            f"n_actions,{self.n_actions}",
            *(f"fraction_homework_{cls.value},{self.homework_fractions[cls]!r}"
              for cls in HomeworkClass),
            *(f"hist_session_length,{length},{self.session_length_hist[length]}"
              for length in sorted(self.session_length_hist)),
            *(f"hist_sessions_per_student,{count},{self.sessions_per_student_hist[count]}"
              for count in sorted(self.sessions_per_student_hist)),
        ]


def summarize(logs: list[StudentLog]) -> LogSummary:
    """Corpus statistics through the real segmentation path: each log is
    segmented once, and every per-session fact is ``session_table``'s."""
    lengths, homework = [], []
    for log in logs:
        lengths += segment(log)
        homework += [action.homework for action in log.actions]
    labels = np.zeros(len(homework), dtype=np.int8)
    labels[np.cumsum(lengths, dtype=np.intp) - 1] = 1
    students = np.repeat(np.arange(len(logs)), [len(log.actions) for log in logs])
    _, lengths, classes, usage = session_table(labels, np.array(homework, dtype=bool), students)
    per_student = np.zeros(len(logs), dtype=np.intp)  # 0 for a log without actions
    per_student[students[labels == 1]] = usage
    return LogSummary(
        n_students=len(logs), n_sessions=len(lengths), n_actions=len(homework),
        homework_fractions={cls: int(np.count_nonzero(classes == cls.value)) / max(len(lengths), 1)
                            for cls in HomeworkClass},
        session_length_hist=Counter(lengths.tolist()),
        sessions_per_student_hist=Counter(per_student.tolist()))
