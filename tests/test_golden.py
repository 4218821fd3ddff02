"""Golden byte lock: SHA-256 of the CSV and summary.json bytes of fixed runs.

Every run is a pure function of (config, algorithm, seed), so a refactor of
the round engine must leave these digests unchanged. A deliberate change of
output re-baselines them; print the current digests with

    PYTHONPATH=src python tests/test_golden.py

The CSV prints 9 significant digits, so it cannot see last-bit drift until a
death, a cap tie or a join flips. The full-precision digests lock every bit:
the repr of every float of a run (its initial energy total, each round's
residual total, p and kappa, and the cumulative consumed energy).
"""
import functools
import hashlib

import pytest

from wsnsim import FieldConfig, RadioParams, algorithm_names, run_simulation
from wsnsim.reporting import round_csv_text, summary_json_text

pytestmark = pytest.mark.slow

SEEDS = (0, 1, 2)
# Members x candidate heads exceeds the membership block size on most rounds.
MULTI_BLOCK_FIELD = FieldConfig(node_count=2000, max_rounds=20)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _full_precision_text(s) -> str:
    lines = [repr(s.initial_energy_total)]
    lines += [f"{r.residual_energy_total!r},{r.p_used!r},{r.kappa_used!r}"
              for r in s.series]
    lines += map(repr, s.consumed_series)
    return "\n".join(lines)


@functools.cache
def _digests(field: FieldConfig, seeds) -> tuple[dict[str, str], dict[str, str]]:
    """(byte digests, full-precision digests) of every algorithm x seed."""
    radio = RadioParams()
    summaries = [run_simulation(field, radio, name, seed)
                 for name in algorithm_names() for seed in seeds]
    out = {f"{s.algorithm}/seed-{s.seed}.csv": _sha(round_csv_text(s))
           for s in summaries}
    out["summary.json"] = _sha(summary_json_text(summaries))
    full = {f"{s.algorithm}/seed-{s.seed}": _sha(_full_precision_text(s))
            for s in summaries}
    return out, full


def default_field_digests() -> dict[str, str]:
    """All 18 algorithms x seeds 0-2 on the default field, to extinction."""
    return _digests(FieldConfig(), SEEDS)[0]


def multi_block_digests() -> dict[str, str]:
    return _digests(MULTI_BLOCK_FIELD, (0,))[0]


def default_field_full_precision() -> dict[str, str]:
    return _digests(FieldConfig(), SEEDS)[1]


def multi_block_full_precision() -> dict[str, str]:
    return _digests(MULTI_BLOCK_FIELD, (0,))[1]


GOLDEN_DEFAULT = {
    'leach/seed-0.csv': '6b488c9ffeea10463502d6306b8b8120f491805856b5f1dbf5fcd6a77a9138f9',
    'leach/seed-1.csv': '4d119080e522978c670549f8f0f633e611f4ebd6c776e8c7385b37d8f619c679',
    'leach/seed-2.csv': '41b6cecb3cf2e039ae73fd06e9cf260531d7ffd9efec85e01c816183651c0fb9',
    'leach-kp/seed-0.csv': '0a1f56e280b65c80a49ad884615ee6baa12b882dd1d904b0ef6827bcdea93344',
    'leach-kp/seed-1.csv': 'a853fbb150fc1a529766744f6c71ef6d39dd7a42b93de6b32887a5ccf8e33bd9',
    'leach-kp/seed-2.csv': 'e18f5202d82637223a9781645868a1cfba64e8b6832c9d34bc6705f1b953da9b',
    'leach-kep/seed-0.csv': 'f82e45f8ddc990be1fb2a7ab55db852cdd9dfe4274a242b51b074b21b0063dd8',
    'leach-kep/seed-1.csv': '879aa7110dcb1764b94e502ecdb86ec84b9436f3aac710ce6ce2b0ac7cec2556',
    'leach-kep/seed-2.csv': 'd4dcc0e12cabeea0e54e17a7e6e4b78c1a157206cde4268baccd36e290c97633',
    'leach-kef-1-1/seed-0.csv': '4a411c598c3c12a623baffc4b46250eb83d9ebbd5fce485bc628524342e408c9',
    'leach-kef-1-1/seed-1.csv': '3a49186003880fd79cd1609b628438700cbc44b86dd4bf6af93290b094ca0c6d',
    'leach-kef-1-1/seed-2.csv': '45ab27654bfc2ef37e59c5f66940c9d3146ae7137edfba973712056d43b2e48d',
    'leach-kef-1-1-p/seed-0.csv': '777099f5f7f8e517b37f23fe3be0511dd971dd43513158b7e34f0b431d48bb29',
    'leach-kef-1-1-p/seed-1.csv': '56c78ffab77b1b1d79454d47459592066078ae3ee124829a77b42c17c42a7aab',
    'leach-kef-1-1-p/seed-2.csv': '78a010d634f1869154f053b4f531abf570cc8e231ff1d5bf32ec3d31cca8fd2e',
    'leach-kef-1-1-p-learning/seed-0.csv': 'f2c0af961cda06b2c3ad81b1aa1ec9d88b198fc077e6c33f72fcf689ee359c10',
    'leach-kef-1-1-p-learning/seed-1.csv': '0d0c5a118d1a4b27c36085442031248dd94756616394a478077ec9f482b4b654',
    'leach-kef-1-1-p-learning/seed-2.csv': '3ab2064423c45ce0b04544902a8fe187adfbcd019fa318e39aaf4d4c0da9a2de',
    'leach-kef-1-2/seed-0.csv': 'd42aa33119c65977bfb6e31a77ef6cfb5a552088b6f2d46e4b8e9535c421ffe3',
    'leach-kef-1-2/seed-1.csv': '54082fe089b6f2f1a66d2ae018b030628905c4400d22718c49b7cadd0d85f9f2',
    'leach-kef-1-2/seed-2.csv': '257ec4daae3d948181ad3e1a1aa604887ac2214dbadda3f8bca88cac3f838c06',
    'leach-kef-1-2-p/seed-0.csv': 'e9ac9681a9cea350979d22dc47952332556df1073c403456d42e42c17b8aef81',
    'leach-kef-1-2-p/seed-1.csv': '70463ddfbff043a6c119479e14bc620de310d23891fe6ac38dcf368684494708',
    'leach-kef-1-2-p/seed-2.csv': 'a25c649a1fcd28ad3d096321227fa92a8f0538b02f3f695b0bd61f525e9ab72b',
    'leach-kef-1-2-p-learning/seed-0.csv': '661a5bd287a66473562d161e37b74201d8f96be0c5ad5b7b928507469a855f3a',
    'leach-kef-1-2-p-learning/seed-1.csv': '0e4827be8a9ee8051aa4a31343225ad8cc0f9d5a3aa3cefee11a7d07d913eab6',
    'leach-kef-1-2-p-learning/seed-2.csv': 'f84713af003d08257df5d31473b36f33b6cf710909b89c4b4aa67c329fbd839a',
    'sep/seed-0.csv': '657f216ea67ad7b1e7eb091757ddd2a750626f1376930bc1b49f4084d0457fd3',
    'sep/seed-1.csv': '8f4e9eef6f1d31ce9d77388fcaef498be0310318bf095563a8329c35fc1c821a',
    'sep/seed-2.csv': '35070d801fb9258c2f561fe40e9ca57c7ec50f91bb1806afddb2a267be430f7d',
    'sep-kp/seed-0.csv': '7938ada8ecacd0e063fcb6c36fba0e2aa27de5f96b7a21bc85649883c17f2b9f',
    'sep-kp/seed-1.csv': 'bd97d094753ffe2798f056fb37eef42b54dec0e289e67cb25ccef3a7067448fd',
    'sep-kp/seed-2.csv': '4f62a5a4ff44d220aa74e99f8b871acc0851302cf2e3404c1d43d88cd9e3a2b2',
    'sep-kep/seed-0.csv': 'faf68ed64a145fe83e51ffb85ab3b60fc6246f9112f41f6d3a5e31e07852a59d',
    'sep-kep/seed-1.csv': 'ba169b73111bd7c5960473f8290399d7a1b2340bb74314cb3064636f593ce911',
    'sep-kep/seed-2.csv': '7c031a78a78ce42b3767349901c2972e1be1c9aee14c46d982766527b0814546',
    'sep-kef-1-1/seed-0.csv': '6cd536d3a3a4e7dbc2caabe9154e06accb0cf18f0f365410d61cbb99f2e9a354',
    'sep-kef-1-1/seed-1.csv': 'cf7d53d0051fb20fc075fa3a30344ec983680b355c3917442ff9ae3c4a39f6ef',
    'sep-kef-1-1/seed-2.csv': '44baaa6b9d6d1a594d2ffd7fe984b87dbec3c4c24aa346d0fe4ce13a6d3b54b6',
    'sep-kef-1-1-p/seed-0.csv': '90258ff66532a0f70552a19d401d30266f1dbfc0d8ed228a26f7c7d7b7d2a6bc',
    'sep-kef-1-1-p/seed-1.csv': '7dfc8f337af3a0b8939db92282915ada4954beb495964efda5ef5a50ddc4106d',
    'sep-kef-1-1-p/seed-2.csv': 'c65233b9246f308097e50aae92fba5261bcbbaa0d79779f3d16d436b78b0c034',
    'sep-kef-1-1-p-learning/seed-0.csv': 'aee67475aaa086f1b0a755f066ac4b4c8b1ac560cf30a1f306af8160088ec08c',
    'sep-kef-1-1-p-learning/seed-1.csv': 'fbdfaef27096f16bf774f424a4b6549d87462e9883a8fa234ff2ac153cec8d2b',
    'sep-kef-1-1-p-learning/seed-2.csv': '8fd47644ca21f09e5a4e36b9b3f89bc8d3a88a1518a6f0155acc93842e045107',
    'sep-kef-1-2/seed-0.csv': '0bc830ff1ba129e69063c89b3b60a6133b095af4223187bb115a06881046f069',
    'sep-kef-1-2/seed-1.csv': '29fa58a8263bb9215ae73748429017802ec6fc9fd6e75b1e540497b03344d223',
    'sep-kef-1-2/seed-2.csv': '12e290bbed7a06eaa2e39d17321f5001863e082fdbf9e80f9f9f53c0de7e8f56',
    'sep-kef-1-2-p/seed-0.csv': '492f95816ca26a894ddd5aa854fa81070db7faabc8f903e8088b3b850a892448',
    'sep-kef-1-2-p/seed-1.csv': '6592e2d358332efb8595f46ecf0ee5182430103067eea2a13b8ed114d7e391ac',
    'sep-kef-1-2-p/seed-2.csv': 'a81a20806914888c7f646bb91f0c55b23450bc43088c39e1499183c789cc4947',
    'sep-kef-1-2-p-learning/seed-0.csv': 'c98ffd8c92b4dfb34123cb51c4dfe8170886854b4cf204e1a0115953ec615306',
    'sep-kef-1-2-p-learning/seed-1.csv': 'c118d4e4247d906d8e0119f0d51a6f45d3c4555d8c511d6237b2a284161fb871',
    'sep-kef-1-2-p-learning/seed-2.csv': 'ca9995c8f3165d4e7b450e9e25ebf3e8112fbb6a9b30b7f7bea48df6f48e8cdc',
    'summary.json': '245b7cfb62a17828813caa153ace3580fd4e751b684822a8f1bcf7af1cda0471',
}

GOLDEN_MULTI_BLOCK = {
    'leach/seed-0.csv': 'cd177cafb1948c60b37f502baa8bc132a7ee2d9c07b82358c734277cb9c16b65',
    'leach-kp/seed-0.csv': '253928ae7f0c2626cd54b824bfa7f954522c5c8dc32bffd9e75a96c1d62553fe',
    'leach-kep/seed-0.csv': '5d6b3f82a5ad310e87571b8276babe62fbc2a882fd1c9fe7fc386be02ed21481',
    'leach-kef-1-1/seed-0.csv': '02d468db10f5cd2d42737d09fac9dfd8f4eb91229588d1ad4aee9061c1edf8bd',
    'leach-kef-1-1-p/seed-0.csv': 'f22e231d5d333f164875e820b580473a78de6bf498f1d03703c35a20a5dd4c81',
    'leach-kef-1-1-p-learning/seed-0.csv': 'f22e231d5d333f164875e820b580473a78de6bf498f1d03703c35a20a5dd4c81',
    'leach-kef-1-2/seed-0.csv': '5e0627d99ba1c61357944894290374844602ec5dbcccdb743077b5f5fc8c027e',
    'leach-kef-1-2-p/seed-0.csv': '58d0a1306d479cfe8d66f64ef00408c1dd315b120d9ca2bb1c9b5f050bb70edd',
    'leach-kef-1-2-p-learning/seed-0.csv': '58d0a1306d479cfe8d66f64ef00408c1dd315b120d9ca2bb1c9b5f050bb70edd',
    'sep/seed-0.csv': '1b1571b99707392ff3b2a3e6d2a36d656bf31a3bd56d81f7d3d27b5ce768ffcd',
    'sep-kp/seed-0.csv': '3bd788c92381adb7cda61278050b636919506c9ee6865e429fd14250639ea969',
    'sep-kep/seed-0.csv': 'bd1788d0c88a26dc18a726e39ad40bb52cbd01594339bea44be66beec63c19aa',
    'sep-kef-1-1/seed-0.csv': 'b7fa5b064d2bd21b06896499daca17fe331d72022180a58258a5adfa25b38768',
    'sep-kef-1-1-p/seed-0.csv': 'd77e7c4a51bda0390f9bfd59415c3f18612b293bab6b3c7ea870cc88a70803f0',
    'sep-kef-1-1-p-learning/seed-0.csv': 'd77e7c4a51bda0390f9bfd59415c3f18612b293bab6b3c7ea870cc88a70803f0',
    'sep-kef-1-2/seed-0.csv': 'f27e929f831fdcb1574a4d370b3c6c7fe871115a9c88fa8d2e70ffaba9c9cf54',
    'sep-kef-1-2-p/seed-0.csv': 'fd8fb6b16eb20e5e72b22765520e9a4699eb6b1fe51c5deab58660738ae68719',
    'sep-kef-1-2-p-learning/seed-0.csv': 'fd8fb6b16eb20e5e72b22765520e9a4699eb6b1fe51c5deab58660738ae68719',
    'summary.json': '8ceacd31d27391163cf480b46cc7e82cb2b0a682084f9eeafd9d1767df34c072',
}

FULL_PRECISION_DEFAULT = {
    'leach/seed-0': 'da1cc17be58c25d2f67dcddb27b3abc209cb08a730aaff792c6020882e592fe2',
    'leach/seed-1': '133d0cc8f17f9d34b0298b71dcc5d652fb8c53aa7b3dc762b3b7f393eaaad31c',
    'leach/seed-2': 'a5585ffbcab10b89475b19034c5c5cea385383782c724a40fcf94c776d5bea0d',
    'leach-kp/seed-0': 'ddd03bc687b7fa3005bb52e475b3c3aae0acbc9c2a20a1e7e441e3bab92826c6',
    'leach-kp/seed-1': '1df479f44f37cdb738715e704d7b63251b8d48d0fe1f4358ef206d6f1d3515e1',
    'leach-kp/seed-2': '13bec32800c6697d39afeda74499ff0f7e0c5e4b1a6c11922d83d1d94f13d1f8',
    'leach-kep/seed-0': '8647b0f78a706635401f4651bcdb14011c27e16d264dddac48f31262217d4dd2',
    'leach-kep/seed-1': 'a6dd85222cea742fce42c9abf09271c790c51382a8d73f5a82625c31d1d41c71',
    'leach-kep/seed-2': '2aaa6a4c340fb41229ced383acc1b4ebfdd9d153d7400055bcb29bf83997aaa4',
    'leach-kef-1-1/seed-0': 'cfce591bf6a2aca1cc03c0dd2a665840d7e2c8a4f37f27e16bd620859a5f0733',
    'leach-kef-1-1/seed-1': 'b1f86a6cff807612846e1a7cc1696cf0c116b017d01620ea957db9dad3c1500f',
    'leach-kef-1-1/seed-2': 'e152340147b577e37c6822302716ee3f079aea50787390858d6fed2ac6c86b1d',
    'leach-kef-1-1-p/seed-0': '52f502414620b62aeefb282f2b82b7047babf8a1c21c1578d4c2112f5968e4a7',
    'leach-kef-1-1-p/seed-1': '3939d514a21c09103067cbfa387c21c510f3b450ff1e6a56869957a2dcbd926e',
    'leach-kef-1-1-p/seed-2': 'df533cbb8b4b337373607d19c3edeb06a81f03ea0b886272af45994c257bf9ef',
    'leach-kef-1-1-p-learning/seed-0': '0b4f593d1f3d3dbfd0266211515392457e04bfdefe9e5ace7e71d6a324a7d2c5',
    'leach-kef-1-1-p-learning/seed-1': 'f45499d8f1e7a0cf83cd42fd966cdcac4ac96b6a6f3652bceb785487164320fc',
    'leach-kef-1-1-p-learning/seed-2': '13a7d9ef242043d6c8d6fabdcc145a495e7cf00e5da4fba96448a33d770e5250',
    'leach-kef-1-2/seed-0': '263036aa5f83872339eea149fb195ad36a012bfda076e544b068951f4bcfdee7',
    'leach-kef-1-2/seed-1': 'b7ef974efaf36c806b414d39c7d614713de0c0991b7eed1af4e15ce46dd1b26a',
    'leach-kef-1-2/seed-2': 'bd292168609d97af7582f3cfb9f0d1f5fff3bf08c6ff4ecf42a752c426c80bab',
    'leach-kef-1-2-p/seed-0': '4817e2cbc4673112ae93d74fd8b1548bc1314c7a1bbde9cd482e43b7d78f1798',
    'leach-kef-1-2-p/seed-1': 'c7b578c7a2d9ca876b6c8c606a01e202ebc3c034842221166c86e2e32768b7a5',
    'leach-kef-1-2-p/seed-2': '862f44403cf7fdc3e1479bbec68d0ffc94b8420de845dc2f2d9c98af59caf8b0',
    'leach-kef-1-2-p-learning/seed-0': 'ee1fd402342fa871e5225dc52ac4d45f58f339ee20e462c5bcccbb2561c06ec3',
    'leach-kef-1-2-p-learning/seed-1': 'fc03b1f77a0161624a0ee733be2c99c8d7cc3f01c5cf0989c09be7c3dfbdab7a',
    'leach-kef-1-2-p-learning/seed-2': 'a145d59f1679aac4011d87e254ed8d9b24c83dcd75a3f8fac463ee1116a6d447',
    'sep/seed-0': '3af1abd12f784a100c85d74df46b724e256256cdf0612f5f30761708dcc22440',
    'sep/seed-1': '611bc64f42a446c888f584b6ad1235c9d0cc1576643fc4701f68bddb79297c82',
    'sep/seed-2': 'c1f7540adfed0d9361839654aac736b43e48a0a4d03b751f0cfe67c0dba4d72d',
    'sep-kp/seed-0': '0c542847acdcf2f6ea91ae1c211188b8f2fd7c024ae6255b3edd70c424979798',
    'sep-kp/seed-1': 'aa3f55ffe7e590843eefad42aba37c823c9dee5cc5a3d102ada654f6b0eb7bf7',
    'sep-kp/seed-2': '3445d10aa228a51790e0b9b11f00cdacd89bd6d444b5926bbd37e6ca167767eb',
    'sep-kep/seed-0': '7a3389c6fdeb6d9d3c39f10efd330bd23a2ae36b024d7ea75a79429833a3b97a',
    'sep-kep/seed-1': 'd713d6976a67a4747afd8f5d62f27c7351e42c686f49d6ad74e05d68ec8dc12d',
    'sep-kep/seed-2': '04d7659d5f5e2004beb5b6bf85769cd46288f6595e3afec0a096a7c17e0f48b5',
    'sep-kef-1-1/seed-0': '092e7786dedc5c2d351c1bb620789ffedf92acb32be7c27a0166d825bfb5e7c8',
    'sep-kef-1-1/seed-1': '4bbe64c5db0abe0352e4e5cb0d11af418ae5cff65ea6726ec99a56f07439a908',
    'sep-kef-1-1/seed-2': 'e0cb629b805e0ad28948795e80e9400b307ec1268b40c3296451217f32930059',
    'sep-kef-1-1-p/seed-0': '5163d33562adf73b8367f4a55f1586048aba30209e25cd82c4d370f529af6409',
    'sep-kef-1-1-p/seed-1': '0b028c211020d5209fdf2e3866ccef1c5dbb7332d88516591fa96c53cac27ad5',
    'sep-kef-1-1-p/seed-2': '4130ba52db02fc1586cdcff27e143f282dad73c04ed4ea16748a60f7338ac8dd',
    'sep-kef-1-1-p-learning/seed-0': '65d19d84e30df9a774a2fa5987eb6c901d568ef4d33cb7563c1375149b189d5e',
    'sep-kef-1-1-p-learning/seed-1': 'cf95999e0d80178fa36f03d8c6e4ab9c3635372bf533c2aee8dc018702e11cb7',
    'sep-kef-1-1-p-learning/seed-2': 'c30f4ed34c2b914283111b21fa8eca3a3a1af14730c790429500ae89f74be174',
    'sep-kef-1-2/seed-0': '6b97fa5265c0f01807437c3e7bdef00bada4583aaebf5f13c73e16a9bccfda1d',
    'sep-kef-1-2/seed-1': '171b5eb15426a45b9cde968c5c4eda0e4204bed96f48910f2dd8ee4d80af9bff',
    'sep-kef-1-2/seed-2': '92474563a1c256c8bb23fa705b209045001d058c7e94a584a8ddec84ae63be1c',
    'sep-kef-1-2-p/seed-0': '62671936370e33873dac93526d2eebdcf837431354873e7153354ed39fb226df',
    'sep-kef-1-2-p/seed-1': 'ed0c62a4953fe1519544a8ca5ef1b89aa4fd326d44b6c311b5ab53ef235c3295',
    'sep-kef-1-2-p/seed-2': 'b8ecba5fdab188a5306c33cae2017d56536b88305c48f1aa1a3756793ffd0ad1',
    'sep-kef-1-2-p-learning/seed-0': '79bc1f07d65e7f9d2018a01ea7dacedce2feaa22283cd8373260f81df00a7802',
    'sep-kef-1-2-p-learning/seed-1': 'de52d2e690046db856fd4f34eb1d0b685eab2453688a1f31393ab7a938440429',
    'sep-kef-1-2-p-learning/seed-2': 'c25a134652380f10e521a0ad14fdd4bbcdde56cad62a2bd64bfe67910ac583da',
}

FULL_PRECISION_MULTI_BLOCK = {
    'leach/seed-0': 'b7a7ca7e2bee74014889256e4b7be2526042a890bd934c0f7e5d52329182043d',
    'leach-kp/seed-0': '00bde8a8f4b25b0e756d721fb7a05eee0a9b9e96f47a42df9e873c54e1850a92',
    'leach-kep/seed-0': '23207d8d43af19e0cd6f5244b964ed5e6b4af8bde7ec1e2b3d94a81689009e37',
    'leach-kef-1-1/seed-0': '8c26c0b816b46152eed4bd0fed6de43bc58d51314cb7305987589c0631979804',
    'leach-kef-1-1-p/seed-0': 'ac3a388296a9d45c134074f608e9d72d7d7d726c30c7e1bca35e8d8eb6b48354',
    'leach-kef-1-1-p-learning/seed-0': 'ac3a388296a9d45c134074f608e9d72d7d7d726c30c7e1bca35e8d8eb6b48354',
    'leach-kef-1-2/seed-0': '2c98b6cf5532052576c5e851b5f06346ea40a40c335d1fb54ab7c587d2952b29',
    'leach-kef-1-2-p/seed-0': 'a5a6a25da5ac9a889c5792142412a090ebb393730f54ee59a113640c680009cf',
    'leach-kef-1-2-p-learning/seed-0': 'a5a6a25da5ac9a889c5792142412a090ebb393730f54ee59a113640c680009cf',
    'sep/seed-0': '1699c15fbedb5de9cf3dbb3b77a7e8eb6dfd2438655232d0659aff674c0f4687',
    'sep-kp/seed-0': 'f98555884b2b9d95fc914751585e779cf8b314aee7b6044bdb7cf9e66cc5a38c',
    'sep-kep/seed-0': 'b167bf660aa40b1af048d38eacba1aa77b2e0108d960175399bc1bfedb94e077',
    'sep-kef-1-1/seed-0': 'cc9c265239c5e44c115e204b28c1081c15279e912f4e03099a8a920dc33e96f7',
    'sep-kef-1-1-p/seed-0': '82e4791ddf138d228abd35a39a54139a9adf7ee0c2fd9a2d8b2e954db52bef48',
    'sep-kef-1-1-p-learning/seed-0': '82e4791ddf138d228abd35a39a54139a9adf7ee0c2fd9a2d8b2e954db52bef48',
    'sep-kef-1-2/seed-0': 'ed8822c6c40d21cfbccbcc68d495c216ede782cf9e7fa88c32408577cf0995e9',
    'sep-kef-1-2-p/seed-0': '65e8c872d8bfb974334b0292359e3b6ce6855895a826cfb8e9264a04cdda6097',
    'sep-kef-1-2-p-learning/seed-0': '65e8c872d8bfb974334b0292359e3b6ce6855895a826cfb8e9264a04cdda6097',
}


def test_default_field_bytes():
    assert default_field_digests() == GOLDEN_DEFAULT


def test_multi_block_field_bytes():
    assert multi_block_digests() == GOLDEN_MULTI_BLOCK


def test_default_field_full_precision():
    assert default_field_full_precision() == FULL_PRECISION_DEFAULT


def test_multi_block_field_full_precision():
    assert multi_block_full_precision() == FULL_PRECISION_MULTI_BLOCK


if __name__ == "__main__":
    for label, digests in (("GOLDEN_DEFAULT", default_field_digests()),
                           ("GOLDEN_MULTI_BLOCK", multi_block_digests()),
                           ("FULL_PRECISION_DEFAULT", default_field_full_precision()),
                           ("FULL_PRECISION_MULTI_BLOCK", multi_block_full_precision())):
        print(f"{label} = {{")
        for key, value in digests.items():
            print(f"    {key!r}: {value!r},")
        print("}\n")
