"""A recording HTTP session for the remote chat and embedding clients.

Both clients post through `vulnprompt._http.JsonPostClient`, which calls
`session.post(url, json=..., headers=..., timeout=...)` and reads the
response's `status_code`, `json()`, `text` and, on a 429, `headers`.
"""

from __future__ import annotations


class StubResponse:
    def __init__(self, status_code, body=None, text="", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text
        # Without headers the stub has no `headers` attribute at all, like the
        # minimal responses some injected sessions return.
        if headers is not None:
            self.headers = headers

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class StubSession:
    """Canned responses (or exceptions to raise) in order; records every POST."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        if not self.responses:
            raise AssertionError("no canned response left")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item
