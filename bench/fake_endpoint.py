"""In-process stand-in for a chat completion endpoint.

`RemoteChatProvider` accepts any object with a requests-style `post` as its
`session`, so the sweep exercises the real client: headers, the in-flight
semaphore, retries and real (small) backoff sleeps. Everything the endpoint
does is a pure function of the prompt's SHA-256, so a prompt's fate and
answer are the same in every process and on every run:

- every attempt costs a fixed latency (a real sleep, which releases the GIL
  the way waiting on a socket would);
- TRANSIENT_PER_MILLE of prompts get a 503 on their first attempt and an
  answer on the retry;
- `fail_per_mille` of prompts get a 503 on every attempt, so the runner
  records them as failures;
- answers are the first shot's label line (parrot), the same labels wrapped
  in prose with an out-of-scope CWE-787, or text with no CWE mention at all;
  zero-shot prompts, which carry no shot, get ZERO_SHOT_ANSWER.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from collections import Counter

TRANSIENT_PER_MILLE = 40
ZERO_SHOT_ANSWER = "CWE-119"
NO_MENTION_ANSWER = "No known weakness pattern matches this function."

_SHOT_LABEL_RE = re.compile(r"^Vulnerabilities: (.+)$", re.MULTILINE)


def _digest(prompt: str) -> bytes:
    return hashlib.sha256(prompt.encode("utf-8")).digest()


def _fate_slot(digest: bytes) -> int:
    return int.from_bytes(digest[:4], "big") % 1000


def always_fails(prompt_sha256_hex: str, fail_per_mille: int) -> bool:
    """True when the endpoint answers every attempt for this prompt with a 503.

    Takes the hex digest so the correctness gate can apply it to the
    `prompt_hash` the runner stores in each record.
    """
    return _fate_slot(bytes.fromhex(prompt_sha256_hex)) < fail_per_mille


def scripted_answer(prompt: str) -> str:
    """The answer text the endpoint returns for a prompt it does not refuse."""
    shot_lines = _SHOT_LABEL_RE.findall(prompt)
    if not shot_lines:
        return ZERO_SHOT_ANSWER
    variant = int.from_bytes(_digest(prompt)[4:8], "big") % 10
    if variant < 7:
        return shot_lines[0]
    if variant < 9:
        return (
            f"The final snippet most resembles the examples labelled {shot_lines[0]}. "
            "It may also write out of bounds (CWE-787)."
        )
    return NO_MENTION_ANSWER


class FakeResponse:
    """The slice of `requests.Response` that RemoteChatProvider reads."""

    def __init__(self, status_code: int, body: dict) -> None:
        self.status_code = status_code
        self._body = body
        self.text = str(body)

    def json(self) -> dict:
        return self._body


class FakeChatEndpoint:
    """A requests-style session answering from the scripted rules above.

    Counts on its own side: `attempts` (every post), `rejected` (503s sent)
    and `retries` (posts for a prompt it has already seen). `answers` maps
    each answered prompt's SHA-256 hex digest to the text sent back.
    """

    def __init__(self, latency_s: float, fail_per_mille: int) -> None:
        self.latency_s = latency_s
        self.fail_per_mille = fail_per_mille
        self._lock = threading.Lock()
        self._seen: Counter = Counter()
        self.attempts = 0
        self.rejected = 0
        self.retries = 0
        self.answers: dict = {}

    def post(self, url, json=None, headers=None, timeout=None) -> FakeResponse:
        prompt = json["prompt"]
        digest = _digest(prompt)
        with self._lock:
            self._seen[digest] += 1
            nth = self._seen[digest]
            self.attempts += 1
            if nth > 1:
                self.retries += 1
        if self.latency_s:
            time.sleep(self.latency_s)
        slot = _fate_slot(digest)
        transient = slot < self.fail_per_mille + TRANSIENT_PER_MILLE and nth == 1
        if slot < self.fail_per_mille or transient:
            with self._lock:
                self.rejected += 1
            return FakeResponse(503, {"error": "service unavailable"})
        text = scripted_answer(prompt)
        with self._lock:
            self.answers[digest.hex()] = text
        return FakeResponse(200, {"text": text})

    def counters(self) -> dict:
        with self._lock:
            return {
                "attempts": self.attempts,
                "rejected": self.rejected,
                "retries": self.retries,
                "distinct_prompts": len(self._seen),
            }
