"""Retrieval-augmented few-shot prompting for multi-label CWE detection.

The package covers the full experiment loop: corpus ingestion, deterministic
or remote embeddings, exact cosine retrieval, prompt construction under
three strategies, cached completion providers, a retrieval-only labeling
baseline, multi-label metrics, and a sweep runner with CSV/JSON reports.

Each name is imported from the module that defines it, such as
``vulnprompt.runner.run``; importing one module loads only what it uses.
"""
