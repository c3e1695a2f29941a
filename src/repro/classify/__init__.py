"""Topic classification of text databases by query probing.

The paper's probe machinery learns *language models* of uncooperative
databases; Ipeirotis, Gravano & Sahami ("Automatic Classification of
Text Databases Through Query Probing") showed the same probes — read
back as nothing but hit counts — also *classify* those databases into
a topic scheme.  This package reproduces that workload end to end on
the repo's synthetic testbeds, and closes the loop into serving:

* :mod:`repro.classify.probes` — seeded, rule-derived probe sets per
  topic, generated from the synthetic topic mixtures
  (:meth:`~repro.synth.profiles.CorpusProfile.topic_space`);
* :mod:`repro.classify.classifier` — Coverage/Specificity
  classification from :meth:`~repro.backend.HitCountingDatabase.hit_count`
  alone, with thresholds and a probe budget
  (:class:`ClassifyParameters`);
* :mod:`repro.classify.router` — a :class:`TopicRouter` that restricts
  the CORI candidate set to topically matching databases before
  fan-out, with an escape hatch to full broadcast on low confidence;
  :class:`RequestRouting` / :class:`RoutingDecision` are the request /
  response halves of the serving contract;
* :mod:`repro.classify.persist` — classifications persisted beside a
  durable model store, so warm-started serving routes immediately.

What the package buys — classification accuracy vs probe budget, and
routed-vs-broadcast serving fan-out — is measured from the harness
layer above the federation it routes for:
:mod:`repro.experiments.classify_bench` (``repro classify bench`` on the
CLI, ``BENCH_classify.json``).
"""

from repro.classify.classifier import (
    ClassifyParameters,
    DatabaseClassification,
    QueryProbeClassifier,
    TopicScore,
)
from repro.classify.persist import load_router, save_router
from repro.classify.probes import TopicProbe, TopicProbeSet, build_probe_set
from repro.classify.router import RequestRouting, RoutingDecision, TopicRouter

__all__ = [
    "ClassifyParameters",
    "DatabaseClassification",
    "QueryProbeClassifier",
    "RequestRouting",
    "RoutingDecision",
    "TopicProbe",
    "TopicProbeSet",
    "TopicRouter",
    "TopicScore",
    "build_probe_set",
    "load_router",
    "save_router",
]
